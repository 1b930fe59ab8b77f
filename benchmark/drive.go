package main

import (
	"cmp"
	"context"
	"crypto/ed25519"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ppj/internal/fleet"
	"ppj/internal/relation"
	"ppj/internal/secop"
	"ppj/internal/server"
	"ppj/internal/server/wal"
	"ppj/internal/service"
)

// deviceLatency is the simulated storage device of the WAL workload: every
// log append sleeps this long where the device's latency occurs, under the
// log mutex between the write and the fsync.
const deviceLatency = time.Millisecond

// fleetRun is one booted in-process fleet behind a loopback listener, and
// the client-side constants a data owner pins out of band.
type fleetRun struct {
	rt         *fleet.Router
	cfg        fleet.Config
	ln         net.Listener
	addr       string
	served     chan error
	deviceKeys []ed25519.PublicKey // per shard
	expected   secop.ExpectedStack
	epoch      time.Time

	// WAL fault-site counters: appends attempted and fsyncs reached.
	appends, syncs atomic.Int64
}

func boot(w workload, dataDir string) (*fleetRun, error) {
	f := &fleetRun{expected: service.ExpectedStack(), served: make(chan error, 1), epoch: time.Now()}
	f.cfg = fleet.Config{Config: server.Config{
		Shards:     w.shards,
		Workers:    2,
		QueueDepth: 32,
		Memory:     memory,
		DataDir:    dataDir,
		Logf:       func(format string, args ...any) { fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...) },
	}}
	if w.wal {
		f.cfg.ShardFaults = func(int) *wal.Faults {
			faults := wal.NewFaults()
			faults.Set(wal.SiteAppend, func() error { f.appends.Add(1); return nil })
			faults.Set(wal.SiteSync, func() error { f.syncs.Add(1); time.Sleep(deviceLatency); return nil })
			return faults
		}
	}
	rt, err := fleet.New(f.cfg)
	if err != nil {
		return nil, err
	}
	f.rt = rt
	for i := 0; i < rt.NumShards(); i++ {
		f.deviceKeys = append(f.deviceKeys, rt.Shard(i).Device().DeviceKey())
	}
	f.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.addr = f.ln.Addr().String()
	go func() { f.served <- rt.Serve(f.ln) }()
	return f, nil
}

// stop drains the fleet and only then reads its counters: Job.finish
// publishes the stored state before it records the run's stats, so a
// snapshot taken at <-Job.Done() can miss the last job. After Shutdown has
// returned and Serve has exited, every worker has finished recording.
func (f *fleetRun) stop() (fleet.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.rt.Shutdown(ctx)
	f.ln.Close()
	if serr := <-f.served; err == nil {
		err = serr
	}
	return f.rt.MetricsSnapshot(), err
}

// joinRec is the outcome of one driven join.
type joinRec struct {
	cc         *contractCase
	start, end time.Duration // since the fleet's epoch; Register called → Job.Done closed
	cpuEnd     time.Duration // the process's CPU time when the join completed
	traced     bool
	err        error
	got        *relation.Relation
}

func (r *joinRec) latency() time.Duration { return r.end - r.start }

// session dials the fleet and completes the attested handshake as party k.
func (f *fleetRun) session(cc *contractCase, k int, role service.Role, deviceKey ed25519.PublicKey, tr *tracer, parent, id int32) (net.Conn, *service.ClientSession, error) {
	sp := tr.begin(parent, id, "dial")
	conn, err := net.Dial("tcp", f.addr)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(parent, id, "handshake")
	client := &service.Client{Name: partyNames[k], Identity: cc.keys[k], DeviceKey: deviceKey, Expected: f.expected}
	cs, err := client.ConnectContract(conn, role, cc.contract.ID)
	tr.end(sp)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("%s handshake: %w", partyNames[k], err)
	}
	return conn, cs, nil
}

// join drives one contract through the public client API as its three
// parties would, one session after another: register, provider A connects
// and uploads, provider B likewise, and the recipient connects last — the
// server enqueues the job only once both uploads are in and the recipient
// is present — and blocks through queue, run and delivery. With a tracer it
// stamps every call boundary; the recipient then waits on Job.Settled
// before it reads, which splits the wait from the delivery and changes
// nothing on the wire, as the server sends its first frame only after that
// channel closes.
func (f *fleetRun) join(cc *contractCase, tr *tracer, id int32) (rec joinRec) {
	rec.cc, rec.traced = cc, tr != nil
	c := cc.contract
	if tr != nil {
		first := len(tr.spans)
		defer func() { // a failed join leaves no span open
			now := int64(time.Since(tr.epoch))
			for i := first; i < len(tr.spans); i++ {
				if tr.spans[i].End == 0 {
					tr.spans[i].End = now
				}
			}
		}()
	}
	rec.start = time.Since(f.epoch)
	root := tr.begin(-1, id, "join")

	sp := tr.begin(root, id, "register")
	job, err := f.rt.Register(c)
	var deviceKey ed25519.PublicKey
	if err == nil {
		var shard int
		shard, _, err = f.rt.ShardFor(c.ID)
		deviceKey = f.deviceKeys[shard]
	}
	tr.end(sp)
	if err != nil {
		rec.err = fmt.Errorf("register: %w", err)
		return rec
	}

	for k, rel := range []*relation.Relation{cc.in.a, cc.in.b} {
		party := tr.begin(root, id, partyNames[k])
		conn, cs, err := f.session(cc, k, service.RoleProvider, deviceKey, tr, party, id)
		if err != nil {
			rec.err = err
			return rec
		}
		sp = tr.begin(party, id, "upload")
		err = cs.SubmitRelation(c.ID, rel)
		tr.end(sp)
		sp = tr.begin(party, id, "close")
		conn.Close()
		tr.end(sp)
		tr.end(party)
		if err != nil {
			rec.err = fmt.Errorf("%s upload: %w", partyNames[k], err)
			return rec
		}
	}

	party := tr.begin(root, id, partyNames[2])
	conn, cs, err := f.session(cc, 2, service.RoleRecipient, deviceKey, tr, party, id)
	if err != nil {
		rec.err = err
		return rec
	}
	defer conn.Close()
	if tr != nil {
		sp = tr.begin(party, id, "wait_settled")
		<-job.Settled()
		tr.end(sp)
	}
	sp = tr.begin(party, id, "receive")
	rec.got, err = cs.ReceiveResult()
	tr.end(sp)
	tr.end(party)
	if err != nil {
		rec.err = fmt.Errorf("receive: %w", err)
		return rec
	}
	sp = tr.begin(root, id, "done_lag")
	<-job.Done()
	rec.end = time.Since(f.epoch)
	tr.end(sp)
	tr.end(root)
	return rec
}

// segments is how many equal parts the timed window is cut into. A timing
// is reported as the median over the parts, so a garbage-collection cycle or
// a slow phase of the machine that covers fewer than half of them does not
// move it.
const segments = 6

// window is what the driver observes around one closed-loop drive.
type window struct {
	start time.Duration // since the fleet's epoch
	limit time.Duration
	wall  time.Duration // start → last join done
	// cpuAt is the process's CPU time — user+sys, server and in-process
	// clients — at each segment boundary.
	cpuAt [segments + 1]time.Duration
	// rss is the process's peak resident set when the workload's
	// rssAfter-th join of the window completed. The registry keeps every
	// job, so the resident set grows with the joins done; read at a fixed
	// count, it does not depend on how many fit into the window.
	rss   float64
	mem   memDelta
	recs  []joinRec
	spans []span
}

// drive runs the closed loop: `clients` goroutines each take the next
// prepared contract and drive its three sessions one after another, so at
// most `clients` connections are open at any time. A client starts no new
// join once `limit` has elapsed (but drives at least two); joins in flight
// run out, and the window ends when the last one does. A zero limit drains
// the given contracts. With trace set,
// every second join of each client is stamped and the others run untraced
// beside them, so the two populations share the machine's phase.
func (f *fleetRun) drive(cases []contractCase, clients int, limit time.Duration, rssAfter int, trace bool) window {
	var (
		next, done atomic.Int64
		wg         sync.WaitGroup
		recs       = make([][]joinRec, clients)
		tracers    = make([]*tracer, clients)
		w          = window{start: time.Since(f.epoch), limit: limit}
	)
	mem0 := readMem()
	w.cpuAt[0] = cpuTime()
	t0 := time.Now()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= segments && limit > 0; k++ {
			time.Sleep(time.Until(t0.Add(limit * time.Duration(k) / segments)))
			w.cpuAt[k] = cpuTime()
		}
	}()
	for c := 0; c < clients; c++ {
		if trace {
			tracers[c] = &tracer{epoch: f.epoch}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; limit == 0 || n < 2 || time.Since(t0) < limit; n++ {
				i := next.Add(1) - 1
				if i >= int64(len(cases)) {
					return
				}
				var tr *tracer
				if trace && n%2 == 1 {
					tr = tracers[c]
				}
				recs[c] = append(recs[c], f.join(&cases[i], tr, int32(i)))
				recs[c][len(recs[c])-1].cpuEnd = cpuTime()
				if done.Add(1) == int64(rssAfter) {
					w.rss = peakRSSMB()
				}
			}
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(t0)
	w.mem = readMem().sub(mem0)
	if w.rss == 0 {
		w.rss = peakRSSMB()
	}
	<-sampled
	for _, r := range recs {
		w.recs = append(w.recs, r...)
	}
	slices.SortFunc(w.recs, func(a, b joinRec) int { return cmp.Compare(a.end, b.end) })
	if trace {
		w.spans = mergeSpans(tracers)
	}
	return w
}

// warmUp drives every given contract once, untimed.
func (f *fleetRun) warmUp(cases []contractCase, clients int) window {
	return f.drive(cases, clients, 0, 0, false)
}

// latencies returns the window's verified joins' latencies in milliseconds:
// all of them, and split into the unstamped and the stamped.
func (w *window) latencies() (all, untraced, traced []float64) {
	for i := range w.recs {
		r := &w.recs[i]
		if r.err != nil {
			continue
		}
		ms := r.latency().Seconds() * 1e3
		all = append(all, ms)
		if r.traced {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	return all, untraced, traced
}

// summary is the timed window's end-to-end timings.
type summary struct {
	joinsPerS, p50, p90, cpuPerJoin float64 // 1/s, ms, ms, ms
}

// summarize reduces the window's verified joins. Every figure is a median
// of parts of the window, so that a collection cycle or a slow phase of the
// machine that covers fewer than half the parts does not move it. Where
// each of the six segments holds at least fifty joins, the parts are the
// segments, a join belonging to the segment it completed in and joins that
// ran past the limit to none. The large-join workloads complete a handful
// of joins per window; there the parts are the joins themselves, in order
// of completion, each with the wall and the process CPU time since the
// join before it completed.
func (w *window) summarize() summary {
	var all, period, cpu []float64
	var bySegment [segments][]float64
	prevEnd, prevCPU := w.start, w.cpuAt[0]
	for i := range w.recs {
		r := &w.recs[i]
		if r.err != nil {
			continue
		}
		ms := r.latency().Seconds() * 1e3
		all = append(all, ms)
		if k := int((r.end - w.start) * segments / max(w.limit, 1)); k < segments {
			bySegment[k] = append(bySegment[k], ms)
		}
		period = append(period, (r.end-prevEnd).Seconds()*1e3)
		cpu = append(cpu, (r.cpuEnd-prevCPU).Seconds()*1e3)
		prevEnd, prevCPU = r.end, r.cpuEnd
	}
	for _, seg := range bySegment {
		if len(seg) < 50 {
			return summary{joinsPerS: 1e3 / median(period), p50: percentile(all, 0.5), p90: percentile(all, 0.9), cpuPerJoin: median(cpu)}
		}
	}
	var per [4][]float64
	for k, seg := range bySegment {
		per[0] = append(per[0], float64(len(seg))/(w.limit.Seconds()/segments))
		per[1] = append(per[1], percentile(seg, 0.5))
		per[2] = append(per[2], percentile(seg, 0.9))
		per[3] = append(per[3], (w.cpuAt[k+1]-w.cpuAt[k]).Seconds()*1e3/float64(len(seg)))
	}
	return summary{median(per[0]), median(per[1]), median(per[2]), median(per[3])}
}

// verify compares every delivered relation, as a multiset, with the
// reference join of the generated inputs, and returns how many joins
// failed, were refused, or delivered a wrong result.
func verify(recs []joinRec, note func(string)) (failed int) {
	for i := range recs {
		r := &recs[i]
		if r.err == nil && !relation.SameMultiset(r.got, r.cc.in.want) {
			r.err = fmt.Errorf("result has %d rows and differs from the reference join's %d", r.got.Len(), r.cc.in.want.Len())
		}
		if r.err != nil {
			if failed < 5 {
				note(fmt.Sprintf("join %s failed: %v", r.cc.contract.ID, r.err))
			}
			failed++
		}
	}
	return failed
}
