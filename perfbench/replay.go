package main

import (
	"fmt"
	"strconv"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/matching"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
	"github.com/greenps/greenps/internal/transport"
)

// replayPubs is how many publications the traced layer replay drives.
const replayPubs = 1000

// replay drives the same inputs as the live chain through the layers
// in process, one broker.Core per chain position, with a span around
// every call into a layer: message.Encode → message.Decode →
// Core.HandleBatch → FrameEncoder.Encode → Conn.SendFrames over a
// loopback TCP pair → Conn.Recv, hop by hop.
type replay struct {
	in     *stockInputs
	or     *stockOracle
	tr     *tracer
	cores  [chainLen]*broker.Core
	tx, rx *transport.Conn
	fenc   *transport.FrameEncoder

	// Work counts beside the spans: wire bytes of the published frames,
	// outgoings the cores emit, unique frames encoded and frames sent.
	frameBytes, outgoing, framesEncoded, framesSent int
}

// replayLayers are the span names of the replay's layer calls.
var replayLayers = []string{"message.encode", "message.decode", "broker.handle_batch.b0", "broker.handle_batch.b1",
	"broker.handle_batch.b2", "transport.frame_encode", "transport.send_frames", "transport.recv"}

func newReplay(in *stockInputs, or *stockOracle, tr *tracer) (*replay, error) {
	rp := &replay{in: in, or: or, tr: tr, fenc: transport.NewFrameEncoder(transport.NewBufPool())}
	epoch := time.Now()
	for i := range rp.cores {
		c, err := broker.New(broker.Config{ID: brokerID(i), Clock: func() float64 { return time.Since(epoch).Seconds() }})
		if err != nil {
			return nil, err
		}
		if i > 0 {
			c.AddNeighbor(brokerID(i - 1))
		}
		if i+1 < chainLen {
			c.AddNeighbor(brokerID(i + 1))
		}
		rp.cores[i] = c
	}
	rp.cores[0].AddClient("pub")
	rp.cores[chainLen-1].AddClient("sub")
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	accepted := make(chan *transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	if rp.tx, err = transport.Dial(l.Addr(), 5*time.Second); err != nil {
		<-accepted
		return nil, err
	}
	if rp.rx = <-accepted; rp.rx == nil {
		rp.tx.Close()
		return nil, fmt.Errorf("replay: loopback accept failed")
	}
	// Load the routing state through Core.Handle, as the live brokers
	// receive it: the advertisement at B0, the subscriptions at B2.
	if err := rp.route(0, clientEP("pub"), &message.Envelope{Kind: message.KindAdvertisement, Adv: in.adv}); err != nil {
		rp.close()
		return nil, err
	}
	for _, s := range in.subs {
		if err := rp.route(chainLen-1, clientEP("sub"), &message.Envelope{Kind: message.KindSubscription, Sub: s}); err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replay) close() {
	rp.tx.Close()
	rp.rx.Close()
}

func brokerID(i int) string              { return "B" + strconv.Itoa(i) }
func clientEP(id string) broker.Endpoint { return broker.Endpoint{Kind: broker.KindClient, ID: id} }

// route hands a control envelope to core k and forwards what it emits
// to neighbor cores, timing subscription and unsubscription handling.
func (rp *replay) route(k int, from broker.Endpoint, env *message.Envelope) error {
	sp := 0
	switch env.Kind {
	case message.KindSubscription:
		sp = rp.tr.begin("broker.subscribe", env.Sub.ID, 0)
	case message.KindUnsubscription:
		sp = rp.tr.begin("broker.unsubscribe", env.UnsubID, 0)
	}
	out, err := rp.cores[k].Handle(from, env, nil)
	if sp != 0 {
		rp.tr.end(sp)
	}
	if err != nil {
		return err
	}
	for _, o := range out {
		if o.To.Kind == broker.KindBroker {
			j, _ := strconv.Atoi(o.To.ID[1:])
			if err := rp.route(j, broker.Endpoint{Kind: broker.KindBroker, ID: brokerID(k)}, o.Env); err != nil {
				return err
			}
		}
	}
	return nil
}

// run replays publications 0..n-1 (with their churn) and checks every
// copy the last hop receives against the oracle.
func (rp *replay) run(n int, res *result) error {
	var outs []broker.Outgoing
	for seq := 0; seq < n; seq++ {
		if sub, subscribe, ok := rp.in.churnOp(seq); ok {
			env := &message.Envelope{Kind: message.KindUnsubscription, UnsubID: sub.ID}
			if subscribe {
				env = &message.Envelope{Kind: message.KindSubscription, Sub: sub}
			}
			res.attempted++
			if err := rp.route(0, clientEP("pub"), env); err != nil {
				res.fail("replay churn call before publication %d: %v", seq, err)
			}
		}
		p := rp.in.pub(seq)
		req := fmt.Sprintf("%s/%d", p.AdvID, seq)
		root := rp.tr.begin("replay.publication", req, 0)

		sp := rp.tr.begin("message.encode", req, root)
		frame, err := message.Encode(&message.Envelope{Kind: message.KindPublication, Pub: p})
		rp.tr.end(sp)
		if err != nil {
			return err
		}
		rp.frameBytes += len(frame)
		sp = rp.tr.begin("message.decode", req, root)
		env, err := message.Decode(frame)
		rp.tr.end(sp)
		if err != nil {
			return err
		}

		got := map[string]int{}
		bad := false
		from := clientEP("pub")
		for k := 0; env != nil && k < chainLen; k++ {
			sp = rp.tr.begin("broker.handle_batch.b"+strconv.Itoa(k), req, root)
			outs, err = rp.cores[k].HandleBatch([]broker.Inbound{{From: from, Env: env}}, outs[:0])
			rp.tr.end(sp)
			if err != nil {
				return err
			}
			rp.outgoing += len(outs)
			var next *message.Envelope
			if next, err = rp.ship(outs, req, root, got, &bad); err != nil {
				return err
			}
			env, from = next, broker.Endpoint{Kind: broker.KindBroker, ID: brokerID(k)}
		}
		rp.tr.end(root)

		res.attempted++
		ws, wp := int(rp.or.subCopies(seq)), int(rp.or.pubCopies(seq))
		if got["sub"] != ws || got["pub"] != wp || bad || len(got) > 2 {
			res.fail("replay publication %d: copies %v, want sub=%d pub=%d, altered=%v", seq, got, ws, wp, bad)
		}
	}
	return nil
}

// ship sends one core's outgoings the way a live node flushes: grouped
// per destination in first-touch order, each unique (envelope, hops)
// encoded once, each group in gathered writes, then received on the
// far end of the loopback pair. It returns the envelope bound for the
// next broker (nil if none) and counts client copies in got.
func (rp *replay) ship(outs []broker.Outgoing, req string, root int, got map[string]int, bad *bool) (*message.Envelope, error) {
	type group struct {
		to     broker.Endpoint
		frames [][]byte
	}
	var groups []group
	idx := map[broker.Endpoint]int{}
	memo := map[broker.Outgoing][]byte{}
	sp := rp.tr.begin("transport.frame_encode", req, root)
	for _, o := range outs {
		key := broker.Outgoing{Env: o.Env, Hops: o.Hops}
		f, ok := memo[key]
		if !ok {
			var err error
			if f, err = rp.fenc.Encode(o.Env, o.Hops); err != nil {
				return nil, err
			}
			memo[key] = f
			rp.framesEncoded++
		}
		gi, ok := idx[o.To]
		if !ok {
			gi = len(groups)
			idx[o.To] = gi
			groups = append(groups, group{to: o.To})
		}
		groups[gi].frames = append(groups[gi].frames, f)
	}
	rp.tr.end(sp)
	defer rp.fenc.Release()

	var next *message.Envelope
	for _, g := range groups {
		// Chunks stay well inside the loopback socket buffers, so one
		// goroutine can write a chunk and then read it back.
		for lo := 0; lo < len(g.frames); lo += 64 {
			chunk := g.frames[lo:min(lo+64, len(g.frames))]
			sp = rp.tr.begin("transport.send_frames", req, root)
			err := rp.tx.SendFrames(chunk)
			rp.tr.end(sp)
			rp.framesSent += len(chunk)
			if err != nil {
				return nil, err
			}
			sp = rp.tr.begin("transport.recv", req, root)
			for range chunk {
				env, err := rp.rx.Recv()
				if err != nil {
					rp.tr.end(sp)
					return nil, err
				}
				if g.to.Kind == broker.KindBroker {
					next = env
					continue
				}
				got[g.to.ID]++
				wantHops := 0
				if g.to.ID == "sub" {
					wantHops = chainLen - 1
				}
				tm := rp.in.tmpl[rp.in.tmplIndex(env.Pub.Seq)]
				if env.Pub.Hops != wantHops || !sameAttrs(env.Pub.Attrs, tm.Attrs) {
					*bad = true
				}
			}
			rp.tr.end(sp)
		}
	}
	return next, nil
}

// layerSumUs is the replay's summed layer time per publication, µs.
func (rp *replay) layerSumUs(pubs int) float64 {
	byName := rp.tr.byName()
	total := 0.0
	for _, name := range replayLayers {
		total += byName[name].Total
	}
	return total / float64(pubs)
}

func (rp *replay) report(pubs int, res *result) {
	byName := rp.tr.byName()
	res.set("message.encode_us", byName["message.encode"].usPerCall())
	res.set("message.decode_us", byName["message.decode"].usPerCall())
	res.set("message.frame_bytes", float64(rp.frameBytes)/float64(pubs))
	res.set("transport.frame_encode_us", byName["transport.frame_encode"].Total/float64(max(rp.framesEncoded, 1)))
	res.set("transport.send_frames_us", byName["transport.send_frames"].usPerCall())
	res.set("transport.frames_per_flush", float64(rp.framesSent)/float64(max(byName["transport.send_frames"].Calls, 1)))
	res.set("transport.recv_us", byName["transport.recv"].Total/float64(max(rp.framesSent, 1)))
	for k := 0; k < chainLen; k++ {
		res.set("broker.handle_batch_us.b"+strconv.Itoa(k), byName["broker.handle_batch.b"+strconv.Itoa(k)].usPerCall())
	}
	res.set("broker.outgoing_per_pub", float64(rp.outgoing)/float64(pubs))
	res.set("broker.subscribe_us", byName["broker.subscribe"].usPerCall())
	res.set("broker.unsubscribe_us", byName["broker.unsubscribe"].usPerCall())
	res.set("replay.layer_ms_per_kpub", rp.layerSumUs(pubs))
}

// traceMatching times a standalone CountingEngine holding the same
// table as each live broker: Add for every subscription, MatchBatch
// per publication, and Remove for the churn subscriptions.
func traceMatching(in *stockInputs, n int, tr *tracer, res *result) {
	eng := matching.NewCountingEngine()
	for _, s := range in.subs {
		sp := tr.begin("matching.add", s.ID, 0)
		err := eng.Add(s)
		tr.end(sp)
		if err != nil {
			res.fail("matching: add %s: %v", s.ID, err)
		}
	}
	matches := 0
	count := func(int, *message.Subscription) { matches++ }
	batch := make([]*message.Publication, 1)
	for seq := 0; seq < n; seq++ {
		if sub, subscribe, ok := in.churnOp(seq); ok {
			if subscribe {
				_ = eng.Add(sub) // timed as an index write only on removal below
			} else {
				sp := tr.begin("matching.remove", sub.ID, 0)
				err := eng.Remove(sub.ID)
				tr.end(sp)
				if err != nil {
					res.fail("matching: remove %s: %v", sub.ID, err)
				}
			}
		}
		batch[0] = in.pub(seq)
		sp := tr.begin("matching.match_batch", fmt.Sprintf("%s/%d", batch[0].AdvID, seq), 0)
		eng.MatchBatch(batch, count)
		tr.end(sp)
	}
	byName := tr.byName()
	res.set("matching.add_us", byName["matching.add"].usPerCall())
	res.set("matching.match_us", byName["matching.match_batch"].usPerCall())
	res.set("matching.matches_per_pub", float64(matches)/float64(max(n, 1)))
	res.set("matching.remove_us", byName["matching.remove"].usPerCall())
}

// traceStock is the traced data-plane run: the live nominal-rate step
// without and then with instrumentation (the difference is the tracing
// overhead), then the in-process layer replay and the standalone
// matching engine over the same inputs.
func traceStock(spec stockSpec, cfg runConfig) (*result, error) {
	res := newResult()
	tr := newTracer()
	t0 := time.Now()
	in := genStockInputs(spec, cfg.seed)
	res.set("workload.gen_s", since(t0))
	or := newStockOracle(in)
	dur := time.Duration(cfg.seconds * 0.4 * float64(time.Second))

	var cpu [2]float64
	for i, instrumented := range []bool{false, true} {
		c, err := startChain(in, instrumented)
		if err != nil {
			return nil, err
		}
		g := newLiveGen(in, or)
		g.attach(c)
		g.timePublish = instrumented
		var depth *depthSampler
		if instrumented {
			depth = startDepthSampler(c)
		}
		st := g.step(spec.nominal, dur)
		cpu[i] = cpuPerKpub(st)
		label := "untraced"
		if instrumented {
			label = "traced"
			res.set("broker.inbox_depth_max", float64(depth.stop()))
			res.set("client.publish_us", float64(g.publishTime)/1e3/float64(max(g.publishCalls, 1)))
			res.set("loadgen.lag_p99_ms", st.lagP99)
		}
		res.notef("%s live step %s", label, st)
		g.finish(res)
	}
	res.set("process.cpu_ms_per_kpub", cpu[0])
	res.set("trace.overhead_pct", (cpu[1]-cpu[0])/cpu[0]*100)

	rp, err := newReplay(in, or, tr)
	if err != nil {
		return nil, err
	}
	err = rp.run(replayPubs, res)
	rp.close()
	if err != nil {
		return nil, err
	}
	rp.report(replayPubs, res)
	traceMatching(in, replayPubs, tr, res)

	if err := writeSpans(cfg, spec.name, tr, res); err != nil {
		return nil, err
	}
	res.notef("reconciliation: replay layer time %.4g ms per kpub vs live process.cpu_ms_per_kpub %.4g ms (untraced) / %.4g ms (traced); the remainder is event-loop wakeups, scheduling, syscalls, GC and the load generator",
		rp.layerSumUs(replayPubs), cpu[0], cpu[1])
	return res, nil
}

// depthSampler polls every node's queue-depth gauge and keeps the max.
type depthSampler struct {
	done chan struct{}
	max  chan int64
}

func startDepthSampler(c *chain) *depthSampler {
	var gauges []*telemetry.Gauge
	for _, r := range c.regs {
		gauges = append(gauges, r.Gauge("greenps_broker_queue_depth", ""))
	}
	s := &depthSampler{done: make(chan struct{}), max: make(chan int64, 1)}
	go func() {
		var m int64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				s.max <- m
				return
			case <-t.C:
				for _, g := range gauges {
					m = max(m, g.Value())
				}
			}
		}
	}()
	return s
}

func (s *depthSampler) stop() int64 {
	close(s.done)
	return <-s.max
}
