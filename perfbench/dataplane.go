package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/client"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
	"github.com/greenps/greenps/internal/workload"
)

// stockSpec parameterizes a live data-plane workload: a B0-B1-B2 chain
// of in-process brokers with one publisher connection at B0 and one
// subscriber connection at B2.
type stockSpec struct {
	name       string
	symbols    int
	subsPerSym int
	// nominal is the open-loop rate latency is reported at, pubs/s.
	nominal float64
	// churnEvery is the publication count per subscribe/unsubscribe pair
	// sent on the publisher's connection (0 = no churn).
	churnEvery int
}

var (
	fanoutSpec    = stockSpec{name: "stock-fanout", symbols: 4, subsPerSym: 64, nominal: 400}
	selectiveSpec = stockSpec{name: "stock-selective", symbols: 2000, subsPerSym: 10, nominal: 350, churnEvery: 100}
)

const (
	chainLen = 3
	// quoteDays is the length of each symbol's quote history; the
	// publications of a symbol cycle through it.
	quoteDays = 32
	// latencyLimit is the sender lag beyond which a nominal window is
	// invalid: the generator, not the system, fell behind.
	latencyLimit = 50 * time.Millisecond
	// seqCap bounds the publications one run sends: the send-time and
	// copy tables are preallocated to it. A capacity window that reaches
	// it ends early; its rate still counts.
	seqCap = 1 << 18
	// sampleCap bounds the latency samples one window keeps.
	sampleCap = 1 << 20
	// capWindow is how many publications the closed-loop sender keeps
	// outstanding (sent, not yet fully delivered) in a capacity window.
	// It keeps the chain saturated while it bounds queueing: by Little's
	// law the mean latency at capacity is capWindow ÷ rate_max.
	capWindow = 16
	// capWarmup is the share of a capacity window spent filling the
	// pipeline before the rate is counted.
	capWarmup = 0.1
	// A run sets the chain up at least setupReps times and until
	// setupMinS seconds are spent; setup_s is the median.
	setupReps = 3
	setupMinS = 1.0
	// rounds is how many (nominal window, capacity window) pairs a run
	// interleaves, so both kinds sample the whole run. The capacity
	// windows get capShare of the run's seconds, the nominal windows the
	// rest. latency_p50_ms is the median over the nominal windows and
	// rate_max the mean of the middle half of the capacity windows, so a
	// burst of host noise that hits a few windows moves neither.
	rounds   = 10
	capShare = 0.6
)

func runStockFanout(cfg runConfig) (*result, error)    { return runStock(fanoutSpec, cfg) }
func runStockSelective(cfg runConfig) (*result, error) { return runStock(selectiveSpec, cfg) }

// stockInputs are one seed's generated inputs. Publication seq s is the
// quote of symbol s mod symbols on day (s div symbols) mod quoteDays.
type stockInputs struct {
	spec  stockSpec
	adv   *message.Advertisement
	subs  []*message.Subscription
	bySym [][]*message.Subscription
	// tmpl holds one publication per (symbol, day); the sender stamps
	// Seq on it just before sending.
	tmpl []*message.Publication
	// churn[k] is subscribed before seq k·churnEvery and unsubscribed
	// before seq k·churnEvery + churnEvery/2.
	churn []*message.Subscription
}

func genStockInputs(spec stockSpec, seed int64) *stockInputs {
	in := &stockInputs{spec: spec}
	in.adv = message.NewAdvertisement("adv-stock", "pub", []message.Predicate{
		message.Pred("class", message.OpEq, message.String("STOCK")),
	})
	stocks := make([]*workload.Stock, spec.symbols)
	for i := range stocks {
		sym := fmt.Sprintf("S%04d", i)
		stocks[i] = workload.GenerateStock(seed, sym, quoteDays)
		subs := stocks[i].Subscriptions(seed, "sub-"+sym, spec.subsPerSym)
		in.bySym = append(in.bySym, subs)
		in.subs = append(in.subs, subs...)
		for d := 0; d < quoteDays; d++ {
			in.tmpl = append(in.tmpl, stocks[i].Publication(in.adv.ID, 0, d))
		}
	}
	if spec.churnEvery > 0 {
		in.churn = make([]*message.Subscription, seqCap/spec.churnEvery)
		for k := range in.churn {
			// Aim at the symbol published a few seqs into the window, so
			// the churn subscription usually sees a match while live.
			sym := (k*spec.churnEvery + 7) % spec.symbols
			in.churn[k] = stocks[sym].Subscriptions(seed+int64(k), fmt.Sprintf("churn%d", k), 5)[k%5]
		}
	}
	return in
}

func (in *stockInputs) tmplIndex(seq int) int {
	n := in.spec.symbols
	return (seq%n)*quoteDays + (seq/n)%quoteDays
}

// pub returns the publication for seq (a shared template: the caller
// must be the only goroutine stamping it).
func (in *stockInputs) pub(seq int) *message.Publication {
	p := in.tmpl[in.tmplIndex(seq)]
	p.Seq = seq
	return p
}

// churnOp reports the churn call that precedes publication seq.
func (in *stockInputs) churnOp(seq int) (sub *message.Subscription, subscribe, ok bool) {
	e := in.spec.churnEvery
	if e == 0 || seq/e >= len(in.churn) {
		return nil, false, false
	}
	switch seq % e {
	case 0:
		return in.churn[seq/e], true, true
	case e / 2:
		return in.churn[seq/e], false, true
	}
	return nil, false, false
}

// stockOracle is the brute-force delivery oracle, indexed by symbol.
type stockOracle struct {
	in *stockInputs
	// subExpect[t] is the copy count template t earns at the subscriber.
	subExpect []int32
}

func newStockOracle(in *stockInputs) *stockOracle {
	o := &stockOracle{in: in, subExpect: make([]int32, len(in.tmpl))}
	for t, p := range in.tmpl {
		for _, s := range in.bySym[t/quoteDays] {
			if s.Matches(p) {
				o.subExpect[t]++
			}
		}
	}
	return o
}

func (o *stockOracle) subCopies(seq int) int32 { return o.subExpect[o.in.tmplIndex(seq)] }

// pubCopies is the copy count seq earns on the publisher's connection:
// one if the churn subscription live at seq matches it.
func (o *stockOracle) pubCopies(seq int) int32 {
	e := o.in.spec.churnEvery
	if e == 0 || seq%e >= e/2 || seq/e >= len(o.in.churn) {
		return 0
	}
	if o.in.churn[seq/e].Matches(o.in.tmpl[o.in.tmplIndex(seq)]) {
		return 1
	}
	return 0
}

// sameAttrs reports whether a delivered copy carries exactly the
// attributes that were sent.
func sameAttrs(got, want map[string]message.Value) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return false
		}
	}
	return true
}

// chain is a live B0-B1-B2 broker chain with its two client connections.
type chain struct {
	nodes    [chainLen]*broker.Node
	regs     [chainLen]*telemetry.Registry
	pub, sub *client.Client
}

// startChain starts the brokers, links them, connects the publisher
// (B0) and subscriber (B2), advertises, subscribes, and returns once
// every subscription has reached B0. instrumented turns each node's
// telemetry registry on.
func startChain(in *stockInputs, instrumented bool) (*chain, error) {
	c := &chain{}
	for i := range c.nodes {
		if instrumented {
			c.regs[i] = telemetry.New(nil)
		}
		n, err := broker.StartNode(broker.NodeConfig{
			ID: fmt.Sprintf("B%d", i), ListenAddr: "127.0.0.1:0", Telemetry: c.regs[i],
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes[i] = n
	}
	// The upstream node dials, so it registers its downstream neighbor
	// before any advertisement reaches it.
	for i := 0; i+1 < chainLen; i++ {
		if err := c.nodes[i].ConnectNeighbor(c.nodes[i+1].Addr()); err != nil {
			c.stop()
			return nil, err
		}
	}
	var err error
	if c.pub, err = client.Connect("pub", c.nodes[0].Addr()); err != nil {
		c.stop()
		return nil, err
	}
	if c.sub, err = client.Connect("sub", c.nodes[chainLen-1].Addr()); err != nil {
		c.stop()
		return nil, err
	}
	err = c.pub.Advertise(in.adv)
	if err == nil {
		err = waitFor("advertisement at the last broker", func() bool {
			return c.nodes[chainLen-1].Counters().MsgsIn >= 1
		})
	}
	for i := 0; err == nil && i < len(in.subs); i++ {
		err = c.sub.Subscribe(in.subs[i])
	}
	if err == nil {
		want := 1 + len(in.subs) // the advertisement plus every subscription
		err = waitFor("subscriptions at the first broker", func() bool {
			return c.nodes[0].Counters().MsgsIn >= want
		})
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// stop closes the clients, then the brokers.
func (c *chain) stop() {
	for _, cl := range []*client.Client{c.pub, c.sub} {
		if cl != nil {
			_ = cl.Close()
		}
	}
	for _, n := range c.nodes {
		if n != nil {
			n.Stop()
		}
	}
}

func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(250 * time.Microsecond)
	}
	return nil
}

// liveGen is the load generator and delivery checker of one chain: open
// loop in nominal windows, closed loop in capacity windows. The sender goroutine owns sent and the churn counters; one
// consumer per connection owns its copy table. Send times and copy
// counts live in tables preallocated and indexed by Seq, so nothing
// rides in the payload and the measured phase allocates little.
type liveGen struct {
	in   *stockInputs
	or   *stockOracle
	c    *chain
	base time.Time

	sched                []atomic.Int64 // scheduled send time, ns since base
	subCopies, pubCopies []int32
	subBad, pubBad       []bool
	stray                atomic.Int64 // copies whose seq was never sent
	fully                atomic.Int64 // publications whose subscriber copies all arrived
	pubRecv              atomic.Int64 // copies received on the publisher's connection
	wg                   sync.WaitGroup

	sent                            int
	churnCalls, churnErrs, sendErrs int
	lags                            []int64
	// wake carries a token after a publication completes, for a sender
	// waiting on a full capacity window.
	wake chan struct{}

	// mu guards the current step's latency samples.
	mu     sync.Mutex
	stepLo int
	lat    []int64 // delivery latency of each copy, ns

	// timePublish makes the sender time each PublishAt call (traced runs).
	timePublish  bool
	publishTime  time.Duration
	publishCalls int
}

func newLiveGen(in *stockInputs, or *stockOracle) *liveGen {
	return &liveGen{
		in: in, or: or, base: time.Now(),
		sched:     make([]atomic.Int64, seqCap),
		subCopies: make([]int32, seqCap),
		pubCopies: make([]int32, seqCap),
		subBad:    make([]bool, seqCap),
		pubBad:    make([]bool, seqCap),
		lags:      make([]int64, 0, seqCap),
		wake:      make(chan struct{}, 1),
		lat:       make([]int64, 0, sampleCap),
		stepLo:    math.MaxInt,
	}
}

// attach starts one checking consumer per client connection of c.
func (g *liveGen) attach(c *chain) {
	g.c = c
	g.wg.Add(2)
	go g.consume(c.sub.Publications(), g.subCopies, g.subBad, chainLen-1, true)
	go g.consume(c.pub.Publications(), g.pubCopies, g.pubBad, 0, false)
}

func (g *liveGen) now() int64 { return int64(time.Since(g.base)) }

// consume checks every copy arriving on one connection: its seq, hop
// count and attributes, and records its latency from the scheduled send.
func (g *liveGen) consume(ch <-chan *message.Publication, copies []int32, bad []bool, hops int, atSub bool) {
	defer g.wg.Done()
	for p := range ch {
		now := g.now()
		seq := p.Seq
		if seq < 0 || seq >= seqCap {
			g.stray.Add(1)
			continue
		}
		t := g.in.tmplIndex(seq)
		copies[seq]++
		if p.Hops != hops || p.AdvID != g.in.adv.ID || !sameAttrs(p.Attrs, g.in.tmpl[t].Attrs) {
			bad[seq] = true
		}
		if atSub && copies[seq] == g.or.subExpect[t] {
			g.fully.Add(1)
			select {
			case g.wake <- struct{}{}:
			default:
			}
		}
		if !atSub {
			g.pubRecv.Add(1)
		}
		g.mu.Lock()
		if seq >= g.stepLo && len(g.lat) < cap(g.lat) {
			g.lat = append(g.lat, now-g.sched[seq].Load())
		}
		g.mu.Unlock()
	}
}

// backlog is the publications sent but not yet fully delivered.
func (g *liveGen) backlog() int64 { return int64(g.sent) - g.fully.Load() }

// send makes the churn call due before seq, if any, then publishes seq
// stamped with the given scheduled send time.
func (g *liveGen) send(seq int, due int64) {
	if sub, subscribe, ok := g.in.churnOp(seq); ok {
		var err error
		if subscribe {
			err = g.c.pub.Subscribe(sub)
		} else {
			err = g.c.pub.Unsubscribe(sub.ID)
		}
		g.churnCalls++
		if err != nil {
			g.churnErrs++
		}
	}
	p := g.in.pub(seq)
	g.sched[seq].Store(due)
	if g.or.subCopies(seq) == 0 {
		g.fully.Add(1) // nothing to await at the subscriber
	}
	var err error
	if g.timePublish {
		t0 := time.Now()
		err = g.c.pub.PublishAt(p)
		g.publishTime += time.Since(t0)
		g.publishCalls++
	} else {
		err = g.c.pub.PublishAt(p)
	}
	if err != nil {
		g.sendErrs++
	}
	g.sent = seq + 1
}

// collect starts keeping the latency of every copy of seq >= lo.
func (g *liveGen) collect(lo int) {
	g.mu.Lock()
	g.stepLo, g.lat = lo, g.lat[:0]
	g.mu.Unlock()
}

// drain waits up to a second for the backlog to empty, stops collecting
// and returns the window's latencies, sorted (ns).
func (g *liveGen) drain() (lat []int64, drained bool) {
	deadline := time.Now().Add(time.Second)
	for g.backlog() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	g.stepLo = math.MaxInt
	lat = g.lat
	g.mu.Unlock()
	slices.Sort(lat)
	return lat, g.backlog() == 0
}

// expected is the copy count the oracle expects for seqs [lo, hi).
func (g *liveGen) expected(lo, hi int) int {
	n := 0
	for seq := lo; seq < hi; seq++ {
		n += int(g.or.subCopies(seq) + g.or.pubCopies(seq))
	}
	return n
}

// stepResult is one open-loop nominal-rate window.
type stepResult struct {
	rate     float64 // offered, pubs/s
	achieved float64 // pubs actually sent per second of the sending period
	pubs     int
	copies   int // expected copies of the window's publications
	samples  int
	p50, p99 float64 // ms; +Inf when the rank falls on a missing copy
	lagP99   float64 // ms the sender ran behind schedule
	aborted  bool    // the run's seqCap was reached
	drained  bool
	cpu      time.Duration
	steal    float64 // % of host CPU time stolen during the window
	valid    bool    // the sender kept to its schedule
}

// step offers rate pubs/s for dur, open loop, then waits for the
// backlog to drain. Latency runs from each publication's scheduled send
// time to each copy's receipt.
func (g *liveGen) step(rate float64, dur time.Duration) stepResult {
	r := stepResult{rate: rate}
	lo := g.sent
	n := int(rate * dur.Seconds())
	g.collect(lo)
	g.lags = g.lags[:0]
	interval := 1e9 / rate
	cpu0 := cpuTime()
	steal0, ticks0 := hostSteal()
	start := g.now() + int64(time.Millisecond)
	for j := 0; j < n; j++ {
		seq := lo + j
		if seq >= seqCap {
			r.aborted = true
			break
		}
		due := start + int64(float64(j)*interval)
		now := g.now()
		if now < due {
			time.Sleep(time.Duration(due - now))
			now = g.now()
		}
		g.lags = append(g.lags, max(now-due, 0))
		g.send(seq, due)
	}
	sendEnd := g.now()
	r.pubs = g.sent - lo
	if sendEnd > start && r.pubs > 0 {
		r.achieved = float64(r.pubs) / (float64(sendEnd-start) / 1e9)
	}
	var lat []int64
	lat, r.drained = g.drain()
	r.cpu = cpuTime() - cpu0
	r.steal = stealPct(steal0, ticks0)
	r.copies = g.expected(lo, g.sent)
	r.samples = len(lat)
	// A missing copy ranks above every delivered one.
	r.p50, r.p99 = rankMs(lat, r.copies, 0.50), rankMs(lat, r.copies, 0.99)
	lags := g.lags
	slices.Sort(lags)
	r.lagP99 = rankMs(lags, len(lags), 0.99)
	r.valid = r.lagP99 <= float64(latencyLimit)/1e6
	return r
}

// capResult is one closed-loop capacity window.
type capResult struct {
	rate     float64 // publications fully delivered per second after warm-up
	pubs     int
	copies   int
	samples  int
	p50, p99 float64 // ms from each send to each copy's receipt
	stalled  bool    // no publication completed for a second
	drained  bool
	steal    float64
}

// capacity runs the chain at its capacity for dur: the sender keeps
// capWindow publications outstanding and sends the next one as soon as
// one completes at the subscriber. The rate counts the publications
// completed between the end of the warm-up and the end of the window.
func (g *liveGen) capacity(dur time.Duration) capResult {
	var r capResult
	lo := g.sent
	g.collect(lo)
	steal0, ticks0 := hostSteal()
	wait := time.NewTimer(time.Hour)
	defer wait.Stop()
	start := g.now()
	warm, end := start+int64(float64(dur)*capWarmup), start+int64(dur)
	var t0, done0 int64 = -1, 0
	for seq := lo; seq < seqCap; seq++ {
		now := g.now()
		if t0 < 0 && now >= warm {
			t0, done0 = now, g.fully.Load()
		}
		if now >= end {
			break
		}
		for g.backlog() >= capWindow && !r.stalled {
			if !wait.Stop() {
				select {
				case <-wait.C:
				default:
				}
			}
			wait.Reset(time.Second)
			select {
			case <-g.wake:
			case <-wait.C:
				r.stalled = true
			}
		}
		if r.stalled {
			break
		}
		g.send(seq, g.now())
	}
	if t1 := g.now(); t0 >= 0 && t1 > t0 {
		r.rate = float64(g.fully.Load()-done0) / (float64(t1-t0) / 1e9)
	}
	r.pubs = g.sent - lo
	var lat []int64
	lat, r.drained = g.drain()
	r.steal = stealPct(steal0, ticks0)
	r.copies = g.expected(lo, g.sent)
	r.samples = len(lat)
	r.p50, r.p99 = rankMs(lat, r.copies, 0.50), rankMs(lat, r.copies, 0.99)
	return r
}

func (r capResult) String() string {
	return fmt.Sprintf("%.1f pubs/s completed with %d outstanding: %d pubs, %d/%d copies, p50 %.3f ms, p99 %.3f ms, stalled %v, drained %v, host steal %.1f%%",
		r.rate, capWindow, r.pubs, r.samples, r.copies, r.p50, r.p99, r.stalled, r.drained, r.steal)
}

// rankMs is the nearest-rank q-quantile of sorted (ns) over total
// expected values, in ms; ranks past the values present are +Inf.
func rankMs(sorted []int64, total int, q float64) float64 {
	if total == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(total))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		return math.Inf(1)
	}
	return float64(sorted[i]) / 1e6
}

func (r stepResult) String() string {
	verdict := "valid"
	if !r.valid {
		verdict = "invalid (generator behind)"
	}
	return fmt.Sprintf("rate %.1f pubs/s offered, %.1f sent: %d pubs, %d/%d copies, p50 %.3f ms, p99 %.3f ms, loadgen.lag_p99_ms %.3f, drained %v, host steal %.1f%%: %s",
		r.rate, r.achieved, r.pubs, r.samples, r.copies, r.p50, r.p99, r.lagP99, r.drained, r.steal, verdict)
}

// finish waits for every outstanding copy, stops the chain and the
// consumers, and checks every publication sent against the oracle.
func (g *liveGen) finish(res *result) {
	var wantPub int64
	for seq := 0; seq < g.sent; seq++ {
		wantPub += int64(g.or.pubCopies(seq))
	}
	_ = waitFor("final deliveries", func() bool { return g.backlog() == 0 && g.pubRecv.Load() >= wantPub })
	g.c.stop()
	g.wg.Wait()
	g.check(res)
}

// check scores every sent publication: it fails if either client got
// the wrong number of copies or any altered copy. Copies of seqs never
// sent and failed sends or churn calls fail too.
func (g *liveGen) check(res *result) {
	res.attempted += g.sent + g.churnCalls
	for seq := 0; seq < g.sent; seq++ {
		ws, wp := g.or.subCopies(seq), g.or.pubCopies(seq)
		switch {
		case g.subCopies[seq] != ws:
			res.fail("publication %d: subscriber got %d copies, want %d", seq, g.subCopies[seq], ws)
		case g.pubCopies[seq] != wp:
			res.fail("publication %d: publisher connection got %d churn copies, want %d", seq, g.pubCopies[seq], wp)
		case g.subBad[seq] || g.pubBad[seq]:
			res.fail("publication %d: a copy had altered attributes or a wrong hop count", seq)
		}
	}
	for seq := g.sent; seq < seqCap; seq++ {
		if g.subCopies[seq] != 0 || g.pubCopies[seq] != 0 {
			res.fail("publication %d was delivered but never sent", seq)
		}
	}
	for i := g.stray.Load(); i > 0; i-- {
		res.fail("a copy carried a seq outside the run")
	}
	for i := g.sendErrs + g.churnErrs; i > 0; i-- {
		res.fail("a publish or churn call returned an error")
	}
}

// runStock is a live data-plane run; see README.md for the phases.
func runStock(spec stockSpec, cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceStock(spec, cfg)
	}
	res := newResult()
	var setups []float64
	var in *stockInputs
	var c *chain
	for start := time.Now(); len(setups) < setupReps || since(start) < setupMinS; {
		if c != nil {
			c.stop()
			runtime.GC() // drop the discarded chain before the next set-up
		}
		t0 := time.Now()
		in = genStockInputs(spec, cfg.seed)
		var err error
		if c, err = startChain(in, false); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	res.set("setup_s", median(setups))
	res.notef("setup_s is the median of %d set-ups (broker start, %d subscriptions installed and propagated, input generation): %.4g to %.4g s",
		len(setups), len(in.subs), slices.Min(setups), slices.Max(setups))

	g := newLiveGen(in, newStockOracle(in))
	g.attach(c)
	nominalDur := time.Duration(cfg.seconds * (1 - capShare) / rounds * float64(time.Second))
	capDur := time.Duration(cfg.seconds * capShare / rounds * float64(time.Second))
	var p50s, p99s, rates []float64
	var pubs, copies int
	var cpu time.Duration
	for i := 0; i < rounds; i++ {
		// Collect the garbage of the previous capacity window, so its
		// GC cycles do not land in the nominal window.
		runtime.GC()
		w := g.step(spec.nominal, nominalDur)
		res.notef("nominal window %s", w)
		if w.valid {
			p50s, p99s = append(p50s, w.p50), append(p99s, w.p99)
			pubs, copies, cpu = pubs+w.pubs, copies+w.copies, cpu+w.cpu
		}
		k := g.capacity(capDur)
		res.notef("capacity window %s", k)
		if !k.stalled {
			rates = append(rates, k.rate)
		}
	}
	g.finish(res)
	if len(p50s) == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("no valid nominal window (%d) or unstalled capacity window (%d)", len(p50s), len(rates))
	}
	res.set("latency_p50_ms", median(p50s))
	res.set("rate_max", midMean(rates))
	res.set("brokers_allocated", chainLen)
	res.notef("latency_p50_ms is the median of %d valid nominal windows' p50s %s ms (%d copies of %d publications)",
		len(p50s), fmtFloats(p50s), copies, pubs)
	res.notef("latency_p99_ms = %.6g ms, the median of the same windows' p99s (printed, not gated: README.md, \"Tail latency\")", median(p99s))
	res.notef("rate_max is the mean of the middle half of %d capacity windows' rates %s pubs/s", len(rates), fmtFloats(rates))
	res.notef("process.cpu_ms_per_kpub at nominal rate: %.4g ms", float64(cpu)/1e6/float64(max(pubs, 1))*1000)
	return res, nil
}

func cpuPerKpub(r stepResult) float64 {
	if r.pubs == 0 {
		return 0
	}
	return float64(r.cpu) / 1e6 / float64(r.pubs) * 1000
}
