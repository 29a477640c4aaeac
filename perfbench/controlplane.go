package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/greenps/greenps/internal/allocation"
	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/core"
	"github.com/greenps/greenps/internal/croc"
	"github.com/greenps/greenps/internal/experiments"
	"github.com/greenps/greenps/internal/grape"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/sim"
	"github.com/greenps/greenps/internal/workload"
)

const (
	// planMinReps is the fewest plans a run times, however long each is.
	planMinReps = 2
	// reconfigSetupReps is how often reconfig-paper builds and profiles
	// its inputs (each set-up is ~14 s of deterministic simulation).
	reconfigSetupReps = 2
	profileRounds     = 200
	// alloc-scale: lowered from the E13 10k point to fit the run budget
	// while shard pruning and spilling still engage.
	scaleSubs   = 3000
	scaleShards = 16
	scaleSpill  = 4 << 10
	// kernelPairs profile pairs are timed per bitvector kernel.
	kernelPairs = 256
)

// planCheck is the plan oracle: every invariant the paper's plans keep.
type planCheck struct {
	subs map[string]bool
	pubs map[string]*bitvector.PublisherStats
	// fingerprint is the first plan's; every later plan must match it.
	fingerprint string
}

// check scores one plan: the Phase-2 assignment within capacity, every
// subscription placed exactly once (in the assignment and, when given,
// in the final tree), the tree well formed, and the fingerprint stable.
func (pc *planCheck) check(name string, asg *allocation.Assignment, tree map[string][]*allocation.Unit, validate func() error, res *result) {
	res.attempted++
	fp := fingerprint(asg)
	if pc.fingerprint == "" {
		pc.fingerprint = fp
	}
	var err error
	switch {
	case asg.CheckCapacity(pc.pubs) != nil:
		err = asg.CheckCapacity(pc.pubs)
	case placedOnce(asg.ByBroker, pc.subs) != nil:
		err = fmt.Errorf("assignment: %w", placedOnce(asg.ByBroker, pc.subs))
	case tree != nil && placedOnce(tree, pc.subs) != nil:
		err = fmt.Errorf("tree: %w", placedOnce(tree, pc.subs))
	case validate != nil && validate() != nil:
		err = validate()
	case fp != pc.fingerprint:
		err = fmt.Errorf("fingerprint %s differs from the first plan's %s", fp, pc.fingerprint)
	}
	if err != nil {
		res.fail("%s: %v", name, err)
	}
}

// placedOnce verifies that the units place every subscription of want
// exactly once and nothing else.
func placedOnce(byBroker map[string][]*allocation.Unit, want map[string]bool) error {
	seen := make(map[string]int, len(want))
	for _, units := range byBroker {
		for _, u := range units {
			for _, m := range u.Members {
				if m.SubID != "" {
					seen[m.SubID]++
				}
			}
		}
	}
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if seen[id] != 1 {
			return fmt.Errorf("subscription %s placed %d times", id, seen[id])
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%d placed subscriptions, want %d", len(seen), len(want))
	}
	return nil
}

func fingerprint(asg *allocation.Assignment) string {
	h := sha256.Sum256([]byte(asg.Fingerprint()))
	return hex.EncodeToString(h[:8])
}

// planReps runs fn until the run's seconds are spent and at least
// planMinReps ran, collecting the wall time each repetition measured.
// Each repetition starts from a collected heap, so none pays for the
// garbage of the one before.
func planReps(cfg runConfig, fn func(rep int) (float64, error)) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for rep := 0; rep < planMinReps || since(start) < cfg.seconds; rep++ {
		runtime.GC()
		w, err := fn(rep)
		if err != nil {
			return nil, err
		}
		walls = append(walls, w)
	}
	return walls, nil
}

// reportPlans sets the end-to-end metrics of a planning workload: a
// plan's median wall time as its latency and plans per second as its
// rate.
func reportPlans(res *result, walls []float64, brokers int, fp string) {
	total, slowest := 0.0, 0.0
	for _, w := range walls {
		total += w
		slowest = max(slowest, w)
	}
	res.set("latency_p50_ms", median(walls)*1000)
	res.set("rate_max", float64(len(walls))/total)
	res.set("brokers_allocated", float64(brokers))
	res.notef("plan_s median %.4g s over %d repetitions %s s; fingerprint %s", median(walls), len(walls), fmtFloats(walls), fp)
	res.notef("latency_p99_ms = %.6g ms (the slowest repetition; printed, not gated)", slowest*1000)
}

// reconfigInputs builds the paper-scale scenario and profiles it in the
// deterministic simulator, as CROC's Phase 1 would gather it.
func reconfigInputs(seed int64) (infos []message.BrokerInfo, genS, prepS float64, err error) {
	t0 := time.Now()
	o := workload.Defaults()
	o.Seed = seed
	sc, err := workload.Build("reconfig-paper", o)
	if err != nil {
		return nil, 0, 0, err
	}
	genS = since(t0)
	t1 := time.Now()
	_, infos, err = sim.Prepare(sc, profileRounds, 0)
	return infos, genS, since(t1), err
}

func reconfigOracle(infos []message.BrokerInfo) *planCheck {
	pc := &planCheck{subs: map[string]bool{}, pubs: map[string]*bitvector.PublisherStats{}}
	for _, bi := range infos {
		for _, si := range bi.Subscriptions {
			pc.subs[si.Sub.ID] = true
		}
		for _, pi := range bi.Publishers {
			pc.pubs[pi.Stats.AdvID] = pi.Stats
		}
	}
	return pc
}

func paperConfig(parallelism int) core.Config {
	return core.Config{Algorithm: core.AlgCRAMIOS, GrapeMode: grape.ModeLoad, Parallelism: parallelism, Clock: time.Now}
}

func checkPaperPlan(pc *planCheck, name string, p *core.Plan, res *result) {
	pc.check(name, p.Assignment, p.Tree.Hosted, p.Tree.Validate, res)
}

func runReconfigPaper(cfg runConfig) (*result, error) {
	res := newResult()
	var infos []message.BrokerInfo
	var setups []float64
	var genS, prepS float64
	reps := reconfigSetupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if infos, genS, prepS, err = reconfigInputs(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	pc := reconfigOracle(infos)
	if cfg.trace {
		res.set("workload.gen_s", genS)
		res.set("sim.prepare_s", prepS)
		return res, tracePaper(cfg, infos, pc, res)
	}
	res.set("setup_s", median(setups))
	res.notef("setup_s samples %s (median of %d set-ups: workload.Build and sim.Prepare with %d profiling rounds)",
		fmtFloats(setups), len(setups), profileRounds)

	var brokers int
	walls, err := planReps(cfg, func(rep int) (float64, error) {
		t0 := time.Now()
		p, err := croc.Plan(infos, paperConfig(0), nil)
		if err != nil {
			return 0, err
		}
		wall := since(t0)
		checkPaperPlan(pc, fmt.Sprintf("plan %d", rep), p, res)
		brokers = p.NumBrokers()
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	reportPlans(res, walls, brokers, pc.fingerprint)
	return res, nil
}

// tracePaper is reconfig-paper's traced run: one untraced plan, one plan
// with rusage and phase spans, one at Parallelism 1, and the bitvector
// kernels over the workload's own profiles.
func tracePaper(cfg runConfig, infos []message.BrokerInfo, pc *planCheck, res *result) error {
	tr := newTracer()
	var walls [2]float64
	for i, traced := range []bool{false, true} {
		t0, cpu0 := time.Now(), cpuTime()
		p, err := croc.Plan(infos, paperConfig(0), nil)
		if err != nil {
			return err
		}
		walls[i] = since(t0)
		checkPaperPlan(pc, "traced-run plan", p, res)
		if !traced {
			continue
		}
		res.set("allocation.cpu_per_wall", (cpuTime()-cpu0).Seconds()/walls[i])
		root := tr.add("croc.plan", "plan-default", 0, t0, time.Since(t0))
		phaseSpans(tr, "plan-default", root, t0, p.PhaseTimes)
		pt := p.PhaseTimes
		res.set("core.inputs_s", pt.Inputs.Seconds())
		res.set("allocation.allocate_s", pt.Allocate.Seconds())
		res.set("overlaybuild.build_s", pt.Build.Seconds())
		res.set("grape.relocate_s", pt.Grape.Seconds())
		reportStats(p.CRAMStats, res)
		res.notef("traced plan: %d brokers, fingerprint %s, CRAMStats %+v", p.NumBrokers(), pc.fingerprint, *p.CRAMStats)
	}
	res.set("trace.overhead_pct", (walls[1]-walls[0])/walls[0]*100)

	t0 := time.Now()
	p, err := croc.Plan(infos, paperConfig(1), nil)
	if err != nil {
		return err
	}
	res.set("allocation.serial_plan_s", since(t0))
	checkPaperPlan(pc, "Parallelism 1 plan", p, res)
	root := tr.add("croc.plan", "plan-serial", 0, t0, time.Since(t0))
	phaseSpans(tr, "plan-serial", root, t0, p.PhaseTimes)

	var profs []*bitvector.Profile
	for _, bi := range infos {
		for _, si := range bi.Subscriptions {
			if si.Profile != nil {
				profs = append(profs, si.Profile)
			}
		}
	}
	timeKernels(tr, profs, pc.pubs, res)
	return writeSpans(cfg, "reconfig-paper", tr, res)
}

// phaseSpans lays core.Plan's stage times end to end under root.
func phaseSpans(tr *tracer, req string, root int, start time.Time, pt core.PhaseTimes) {
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"core.inputs", pt.Inputs}, {"allocation.allocate", pt.Allocate}, {"overlaybuild.build", pt.Build}, {"grape.relocate", pt.Grape}} {
		tr.add(ph.name, req, root, start, ph.d)
		start = start.Add(ph.d)
	}
}

func reportStats(st *allocation.CRAMStats, res *result) {
	res.set("allocation.pack_attempts", float64(st.PackAttempts))
	res.set("allocation.closeness_computations", float64(st.ClosenessComputations))
	res.set("allocation.cover_computations", float64(st.CoverComputations))
	res.set("allocation.prune_ratio", float64(st.BoundPruned)/float64(max(st.ClosenessComputations, 1)))
	res.set("allocation.accept_ratio", float64(st.ClustersAccepted)/float64(max(st.ClustersAccepted+st.ClustersRejected, 1)))
	res.set("allocation.gifs", float64(st.InitialGIFs))
	res.set("allocation.final_units", float64(st.FinalUnits))
	res.set("allocation.shards_pruned", float64(st.ShardsPruned))
	res.set("allocation.spilled_runs", float64(st.SpilledRuns))
}

// timeKernels times IntersectLoad and IOS Closeness over a fixed sample
// of the workload's own profile pairs, repeating the sample until each
// kernel has run for at least 100 ms.
func timeKernels(tr *tracer, profs []*bitvector.Profile, pubs map[string]*bitvector.PublisherStats, res *result) {
	if len(profs) < 2 {
		return
	}
	type pair struct{ a, b *bitvector.Profile }
	pairs := make([]pair, kernelPairs)
	for i := range pairs {
		pairs[i] = pair{profs[i%len(profs)], profs[(i*7919+13)%len(profs)]}
	}
	var sink float64
	for _, k := range []struct {
		name, metric string
		fn           func(a, b *bitvector.Profile)
	}{
		{"bitvector.intersect_load", "bitvector.intersect_load_ns", func(a, b *bitvector.Profile) {
			sink += bitvector.IntersectLoad(a, b, pubs).Rate
		}},
		{"bitvector.closeness", "bitvector.closeness_ns", func(a, b *bitvector.Profile) {
			sink += bitvector.Closeness(bitvector.MetricIOS, a, b)
		}},
	} {
		t0 := time.Now()
		calls := 0
		for time.Since(t0) < 100*time.Millisecond {
			for _, p := range pairs {
				k.fn(p.a, p.b)
			}
			calls += len(pairs)
		}
		d := time.Since(t0)
		tr.add(k.name, "kernel-sample", 0, t0, d)
		res.set(k.metric, float64(d)/float64(calls))
	}
	res.notef("kernel sample: %d profile pairs (checksum %.6g)", kernelPairs, sink)
}

func writeSpans(cfg runConfig, workload string, tr *tracer, res *result) error {
	path, err := tr.write(filepath.Join(cfg.outDir, "spans"), workload, cfg.stamp)
	if err != nil {
		return err
	}
	res.notef("span file %s (%d spans)", path, len(tr.spans))
	for _, l := range tr.layers() {
		res.notef("layer %-28s calls %6d  self %12.1f us  self per request %10.2f us", l.Name, l.Calls, l.Self, l.PerReq)
	}
	return nil
}

// scaleCRAM is alloc-scale's allocator at the given parallelism.
func scaleCRAM(cfg runConfig, parallelism int) *allocation.CRAM {
	return &allocation.CRAM{
		Metric:           bitvector.MetricIOS,
		ExhaustiveSearch: true,
		Shards:           scaleShards,
		SpillBudgetBytes: scaleSpill,
		SpillDir:         filepath.Join(cfg.outDir, "spill"),
		Parallelism:      parallelism,
	}
}

// scaleOracle derives the plan oracle from a freshly generated input.
func scaleOracle(in *allocation.Input) *planCheck {
	pc := &planCheck{subs: map[string]bool{}, pubs: in.Publishers}
	for _, u := range in.Units {
		for _, m := range u.Members {
			pc.subs[m.SubID] = true
		}
	}
	return pc
}

// scaleRep is one alloc-scale repetition: a freshly generated input (the
// set-up) and its allocation, with the allocation's wall and CPU time.
type scaleRep struct {
	in       *allocation.Input
	asg      *allocation.Assignment
	st       allocation.CRAMStats
	genS     float64
	allocS   float64
	allocCPU time.Duration
}

func allocScaleRep(cfg runConfig, parallelism int) (r scaleRep, err error) {
	t0 := time.Now()
	if r.in, err = experiments.ScaleWorkload(cfg.seed, scaleSubs); err != nil {
		return r, err
	}
	r.genS = since(t0)
	if err = os.MkdirAll(filepath.Join(cfg.outDir, "spill"), 0o755); err != nil {
		return r, err
	}
	cram := scaleCRAM(cfg, parallelism)
	t1, cpu1 := time.Now(), cpuTime()
	if r.asg, err = cram.Allocate(r.in); err != nil {
		return r, err
	}
	r.allocCPU, r.allocS = cpuTime()-cpu1, since(t1)
	r.st = cram.Stats()
	return r, nil
}

func checkScale(pc *planCheck, name string, asg *allocation.Assignment, st allocation.CRAMStats, res *result) {
	pc.check(name, asg, nil, nil, res)
	if st.ShardsPruned == 0 || st.SpilledRuns == 0 {
		res.fail("%s: shards_pruned %d and spilled_runs %d must both be positive", name, st.ShardsPruned, st.SpilledRuns)
	}
}

func runAllocScale(cfg runConfig) (*result, error) {
	res := newResult()
	if cfg.trace {
		return res, traceScale(cfg, res)
	}
	var pc *planCheck
	var setups []float64
	// One generation takes about 10 ms, so a few plans' worth make a
	// noisy median: generate (and discard) inputs for setupMinS first.
	for start := time.Now(); since(start) < setupMinS; {
		runtime.GC() // every sample starts from the same heap
		t0 := time.Now()
		if _, err := experiments.ScaleWorkload(cfg.seed, scaleSubs); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	var brokers int
	walls, err := planReps(cfg, func(rep int) (float64, error) {
		r, err := allocScaleRep(cfg, 0)
		if err != nil {
			return 0, err
		}
		if pc == nil {
			pc = scaleOracle(r.in)
		}
		checkScale(pc, fmt.Sprintf("allocation %d", rep), r.asg, r.st, res)
		setups = append(setups, r.genS)
		brokers = r.asg.NumAllocated()
		return r.allocS, nil
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups))
	res.notef("setup_s is the median of %d ScaleWorkload generations of %d subscriptions: %.4g to %.4g s", len(setups), scaleSubs, slices.Min(setups), slices.Max(setups))
	reportPlans(res, walls, brokers, pc.fingerprint)
	return res, nil
}

func traceScale(cfg runConfig, res *result) error {
	tr := newTracer()
	var walls [2]float64
	var pc *planCheck
	for i, traced := range []bool{false, true} {
		t0 := time.Now()
		r, err := allocScaleRep(cfg, 0)
		if err != nil {
			return err
		}
		if pc == nil {
			pc = scaleOracle(r.in)
		}
		walls[i] = r.allocS
		checkScale(pc, "traced-run allocation", r.asg, r.st, res)
		if !traced {
			continue
		}
		res.set("workload.gen_s", r.genS)
		res.set("allocation.allocate_s", r.allocS)
		res.set("allocation.cpu_per_wall", r.allocCPU.Seconds()/r.allocS)
		root := tr.add("scale.rep", "alloc-default", 0, t0, time.Since(t0))
		tr.add("workload.gen", "alloc-default", root, t0, time.Duration(r.genS*1e9))
		tr.add("allocation.allocate", "alloc-default", root, t0.Add(time.Duration(r.genS*1e9)), time.Duration(r.allocS*1e9))
		reportStats(&r.st, res)
		res.notef("traced allocation: %d brokers, fingerprint %s, CRAMStats %+v", r.asg.NumAllocated(), pc.fingerprint, r.st)
		var profs []*bitvector.Profile
		for _, u := range r.in.Units {
			profs = append(profs, u.Profile)
		}
		timeKernels(tr, profs, r.in.Publishers, res)
	}
	res.set("trace.overhead_pct", (walls[1]-walls[0])/walls[0]*100)
	r, err := allocScaleRep(cfg, 1)
	if err != nil {
		return err
	}
	res.set("allocation.serial_plan_s", r.allocS)
	checkScale(pc, "Parallelism 1 allocation", r.asg, r.st, res)
	return writeSpans(cfg, "alloc-scale", tr, res)
}
