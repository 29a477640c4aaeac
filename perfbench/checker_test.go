package main

import (
	"testing"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/experiments"
	"github.com/greenps/greenps/internal/message"
)

// deliver feeds the data-plane checker the copies the oracle expects for
// publications [0, n) at the subscriber, after fault rewrites them, and
// returns the checker's verdict.
func deliver(t *testing.T, n int, fault func(seq int, copies []*message.Publication) []*message.Publication) *result {
	t.Helper()
	in := genStockInputs(fanoutSpec, 1)
	g := newLiveGen(in, newStockOracle(in))
	ch := make(chan *message.Publication, 64)
	g.wg.Add(1)
	go g.consume(ch, g.subCopies, g.subBad, chainLen-1, true)
	for seq := 0; seq < n; seq++ {
		tm := in.tmpl[in.tmplIndex(seq)]
		var copies []*message.Publication
		for i := int32(0); i < g.or.subCopies(seq); i++ {
			p := tm.Clone()
			p.Seq, p.Hops = seq, chainLen-1
			copies = append(copies, p)
		}
		for _, p := range fault(seq, copies) {
			ch <- p
		}
	}
	close(ch)
	g.wg.Wait()
	g.sent = n
	res := newResult()
	g.check(res)
	return res
}

func TestDataPlaneCheckerCatchesFaults(t *testing.T) {
	const n = 40
	clean := deliver(t, n, func(_ int, c []*message.Publication) []*message.Publication { return c })
	if clean.failed != 0 || clean.attempted != n {
		t.Fatalf("clean stream: failed %d of %d, want 0 of %d: %v", clean.failed, clean.attempted, n, clean.problems)
	}
	faults := map[string]func(seq int, c []*message.Publication) []*message.Publication{
		"dropped copy": func(seq int, c []*message.Publication) []*message.Publication {
			if seq == 3 {
				return c[1:]
			}
			return c
		},
		"duplicated copy": func(seq int, c []*message.Publication) []*message.Publication {
			if seq == 5 {
				return append(c, c[0].Clone())
			}
			return c
		},
		"altered copy": func(seq int, c []*message.Publication) []*message.Publication {
			if seq == 7 {
				c[0].Attrs["close"] = message.Number(c[0].Attrs["close"].Num + 1)
			}
			return c
		},
		"wrong hop count": func(seq int, c []*message.Publication) []*message.Publication {
			if seq == 9 {
				c[0].Hops = 1
			}
			return c
		},
	}
	for name, f := range faults {
		res := deliver(t, n, f)
		frac := float64(res.failed) / float64(res.attempted)
		if res.failed != 1 || frac <= 0 {
			t.Errorf("%s: failed %d of %d (failed_frac %g), want exactly one failure", name, res.failed, res.attempted, frac)
		}
	}
}

func TestPlanCheckerCatchesMissingSubscription(t *testing.T) {
	in, err := experiments.ScaleWorkload(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	pc := scaleOracle(in)
	asg, err := (&allocation.BinPacking{}).Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	pc.check("plan", asg, nil, nil, res)
	if res.failed != 0 {
		t.Fatalf("intact plan failed: %v", res.problems)
	}
	for id, units := range asg.ByBroker {
		asg.ByBroker[id] = units[1:] // BIN PACKING units hold one subscription each
		break
	}
	pc.check("plan missing a subscription", asg, nil, nil, res)
	if res.failed != 1 || res.attempted != 2 {
		t.Fatalf("plan missing a subscription: failed %d of %d, want 1 of 2", res.failed, res.attempted)
	}
}

// TestLiveFanoutSmoke runs a short live data-plane run end to end (set-up,
// nominal and capacity windows, final check); with -race it covers the
// sender, the consumers and the window bookkeeping.
func TestLiveFanoutSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live brokers")
	}
	endToEnd, _, err := loadMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runStock(fanoutSpec, runConfig{seed: 1, seconds: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("failed %d of %d: %v", res.failed, res.attempted, res.problems)
	}
	for _, d := range endToEnd {
		if _, ok := res.metrics[d.Name]; !ok && d.Name != "rss_peak_mb" {
			t.Errorf("metric %s not reported", d.Name)
		}
	}
}
