package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request share req (a publication's
// adv/seq or a plan repetition); parent is the id of the enclosing span
// (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, req string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(t.base))})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.base)) }

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name, req string, parent int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(t.base))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: s, End: s + int64(d)})
	return len(t.spans)
}

// layerTime is one span name's totals: calls, summed duration and
// summed self time (duration minus the part its children cover).
type layerTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	Total  float64 `json:"total_us"`
	Self   float64 `json:"self_us"`
	PerReq float64 `json:"self_us_per_req"`
}

// layers aggregates self time per span name, sorted by name.
func (t *tracer) layers() []layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	reqs := map[string]map[string]bool{}
	for _, s := range t.spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
			reqs[s.Name] = map[string]bool{}
		}
		d := s.End - s.Start
		lt.Calls++
		lt.Total += float64(d) / 1e3
		lt.Self += float64(d-covered(s, children[s.ID])) / 1e3
		reqs[s.Name][s.Req] = true
	}
	out := make([]layerTime, 0, len(agg))
	for name, lt := range agg {
		lt.PerReq = lt.Self / float64(len(reqs[name]))
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// byName indexes layers by span name.
func (t *tracer) byName() map[string]layerTime {
	m := map[string]layerTime{}
	for _, l := range t.layers() {
		m[l.Name] = l
	}
	return m
}

// usPerCall is the mean duration of one span of the name, µs (0 for none).
func (l layerTime) usPerCall() float64 {
	if l.Calls == 0 {
		return 0
	}
	return l.Total / float64(l.Calls)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write saves the stamp, the per-layer self times and every span as
// one JSON document and returns its path.
func (t *tracer) write(dir, workload string, stamp map[string]string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%s.json", workload, stamp["seed"]))
	b, err := json.Marshal(struct {
		Env    map[string]string `json:"env"`
		Layers []layerTime       `json:"layers"`
		Spans  []span            `json:"spans"`
	}{stamp, t.layers(), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
