package main

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"slices"
	"time"

	"ppj/internal/core"
	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/secop"
	"ppj/internal/server/resultstore"
	"ppj/internal/server/wal"
	"ppj/internal/service"
	"ppj/internal/sim"
)

// The layer probes replay the workload's shapes — row count, cell size,
// algorithm, predicate — against each package's exported functions, one
// layer at a time on one goroutine, after the fleet has stopped. They time
// the layers from outside; nothing in the program is instrumented.

// sampled calls fn until the budget is spent, at least three times unless
// one call alone outlasts the budget, and returns the median duration in
// nanoseconds.
func sampled(budget time.Duration, fn func() error) (float64, error) {
	var samples []float64
	for began := time.Now(); len(samples) < 3 || time.Since(began) < budget; {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t)))
		if len(samples) == 1 && time.Since(began) > budget {
			break
		}
	}
	return median(samples), nil
}

// perOp times rounds of batch calls of fn and returns the median round's
// nanoseconds per call. Five rounds share the budget.
func perOp(budget time.Duration, fn func(i int)) float64 {
	const rounds = 5
	batch := 64
	for { // grow the batch until one round fills its share of the budget
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn(i)
		}
		if d := time.Since(t); d >= budget/(2*rounds) || batch >= 1<<22 {
			break
		}
		batch *= 4
	}
	samples := make([]float64, rounds)
	for r := range samples {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn(i)
		}
		samples[r] = float64(time.Since(t)) / float64(batch)
	}
	return median(samples)
}

func probeSecop(res *result, budget time.Duration) error {
	dev, err := service.BootDevice()
	if err != nil {
		return err
	}
	challenge := make([]byte, 32)
	if _, err := rand.Read(challenge); err != nil {
		return err
	}
	var att secop.Attestation
	attest, err := sampled(budget, func() (err error) {
		att, err = dev.Attest(challenge)
		return err
	})
	if err != nil {
		return err
	}
	expected := service.ExpectedStack()
	verify, err := sampled(budget, func() error {
		return secop.Verify(dev.DeviceKey(), expected, att, challenge)
	})
	res.set("secop.attest_us", "us", attest/1e3)
	res.set("secop.verify_us", "us", verify/1e3)
	return err
}

// serviceStages is one pass of a contract through the service package's own
// composable stages over net.Pipe: no TCP, no server, no queue.
type serviceStages struct {
	handshake, uploadPerRow, deliverPerRow []float64 // ns
	run                                    []float64 // ns
}

func (st *serviceStages) pass(dev *secop.Device, cc *contractCase) error {
	svc, err := service.NewServiceWithDevice(dev, cc.contract, memory, 0)
	if err != nil {
		return err
	}
	// serve answers one session: hello, handshake, then the role's stage.
	serve := func(conn net.Conn, out *service.Outcome) error {
		defer conn.Close()
		sess, hello, err := service.ReadHello(conn)
		if err != nil {
			return err
		}
		party, err := svc.Handshake(sess, hello)
		if err != nil {
			return err
		}
		if party.Role == service.RoleProvider {
			return svc.ReceiveUpload(party.Name, sess)
		}
		return svc.DeliverStream(sess, *out, 0)
	}
	connect := func(k int, role service.Role, out *service.Outcome) (*service.ClientSession, chan error, error) {
		cConn, sConn := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- serve(sConn, out) }()
		client := &service.Client{Name: partyNames[k], Identity: cc.keys[k], DeviceKey: dev.DeviceKey(), Expected: service.ExpectedStack()}
		t := time.Now()
		cs, err := client.ConnectContract(cConn, role, cc.contract.ID)
		st.handshake = append(st.handshake, float64(time.Since(t)))
		if err != nil {
			cConn.Close()
			<-served
		}
		return cs, served, err
	}
	for k, rel := range []*relation.Relation{cc.in.a, cc.in.b} {
		cs, served, err := connect(k, service.RoleProvider, nil)
		if err != nil {
			return err
		}
		t := time.Now()
		err = cs.SubmitRelation(cc.contract.ID, rel)
		st.uploadPerRow = append(st.uploadPerRow, float64(time.Since(t))/float64(rel.Len()))
		if serr := <-served; err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	t := time.Now()
	out := svc.RunContract()
	st.run = append(st.run, float64(time.Since(t)))
	if out.Err != nil {
		return out.Err
	}
	cs, served, err := connect(2, service.RoleRecipient, &out)
	if err != nil {
		return err
	}
	t = time.Now()
	got, err := cs.ReceiveResult()
	st.deliverPerRow = append(st.deliverPerRow, float64(time.Since(t))/float64(max(len(out.Rows), 1)))
	if serr := <-served; err == nil {
		err = serr
	}
	if err == nil && !relation.SameMultiset(got, cc.in.want) {
		err = fmt.Errorf("service probe: result differs from the reference join")
	}
	return err
}

func probeService(res *result, cc *contractCase, budget time.Duration) error {
	dev, err := service.BootDevice()
	if err != nil {
		return err
	}
	var st serviceStages
	if _, err := sampled(budget, func() error { return st.pass(dev, cc) }); err != nil {
		return err
	}
	verify, err := sampled(budget/4, cc.contract.Verify)
	res.set("service.handshake_us", "us", median(st.handshake)/1e3)
	res.set("service.contract_verify_us", "us", verify/1e3)
	res.set("service.upload_us_per_row", "us", median(st.uploadPerRow)/1e3)
	res.set("service.run_ms", "ms", median(st.run)/1e6)
	res.set("service.deliver_us_per_row", "us", median(st.deliverPerRow)/1e3)
	return err
}

// coreJoin runs the workload's algorithm once on a fresh host and
// coprocessor under the given sealer (nil: OCB with a fresh key) and
// returns the join call's duration and counters.
func coreJoin(w workload, in *inputSet, sealer sim.Sealer) (time.Duration, sim.Stats, error) {
	host := sim.NewHost(0)
	cop, err := sim.NewCoprocessor(host, sim.Config{Memory: memory, Sealer: sealer})
	if err != nil {
		return 0, sim.Stats{}, err
	}
	ta, err := sim.LoadTable(host, cop.Sealer(), "A", in.a)
	if err != nil {
		return 0, sim.Stats{}, err
	}
	tb, err := sim.LoadTable(host, cop.Sealer(), "B", in.b)
	if err != nil {
		return 0, sim.Stats{}, err
	}
	pred, err := w.pred.Build(in.a.Schema, in.b.Schema)
	if err != nil {
		return 0, sim.Stats{}, err
	}
	var out core.Result
	t := time.Now()
	if w.alg == "alg7" {
		out, err = core.Join7(cop, ta, tb, pred.(*relation.Equi))
	} else {
		out, err = core.Join5(cop, []sim.Table{ta, tb}, relation.Pairwise(pred))
	}
	d := time.Since(t)
	if err == nil && out.OutputLen != int64(w.s) {
		err = fmt.Errorf("core probe: %s produced %d rows, want %d", w.alg, out.OutputLen, w.s)
	}
	return d, out.Stats, err
}

// probeCore returns the OCB and plain join times in milliseconds for the
// ocb layer's share-of-run figure.
func probeCore(res *result, w workload, in *inputSet, budget time.Duration) (ocbMs, plainMs float64, err error) {
	var stats sim.Stats
	var ocbNs, plainNs []float64
	if _, err := sampled(budget, func() error {
		d, st, err := coreJoin(w, in, nil)
		ocbNs, stats = append(ocbNs, float64(d)), st
		return err
	}); err != nil {
		return 0, 0, err
	}
	if _, err := sampled(budget, func() error {
		d, _, err := coreJoin(w, in, sim.PlainSealer{})
		plainNs = append(plainNs, float64(d))
		return err
	}); err != nil {
		return 0, 0, err
	}
	ocbMs, plainMs = median(ocbNs)/1e6, median(plainNs)/1e6
	// Called directly, alg7 sorts the union in one network; the server's
	// path through the sort cache has its own closed form (modelTransfers).
	n := int64(w.rows)
	model := core.Join5Transfers([]int64{n, n}, int64(w.s), memory)
	if w.alg == "alg7" {
		model = core.Join7Transfers(n, n, int64(w.s))
	}
	res.set("core.join_ocb_ms", "ms", ocbMs)
	res.set("core.join_plain_ms", "ms", plainMs)
	res.set("core.gets", "count", float64(stats.Gets))
	res.set("core.puts", "count", float64(stats.Puts))
	res.set("core.pred_evals", "count", float64(stats.PredEvals))
	res.set("core.comparisons", "count", float64(stats.Comparisons))
	res.set("core.model_delta", "count", float64(int64(stats.Transfers())-model))
	if int64(stats.Transfers()) != model {
		res.fail(fmt.Sprintf("core probe: %s made %d transfers, the closed form says %d", w.alg, stats.Transfers(), model))
	}
	return ocbMs, plainMs, nil
}

// cells returns n encoded keyed tuples with seeded keys.
func cells(n int, seed uint64) [][]byte {
	rng := relation.NewRand(seed)
	schema := relation.KeyedSchema()
	out := make([][]byte, n)
	for i := range out {
		out[i] = schema.MustEncode(relation.Tuple{relation.IntValue(rng.Int64N(1 << 40)), relation.IntValue(int64(i))})
	}
	return out
}

// probeOblivious times both sorting networks over the union's padded size
// under the plain sealer: what is left is the compare-exchange schedule and
// the transfer path.
func probeOblivious(res *result, w workload, seed uint64, budget time.Duration) error {
	n := int64(2 * w.rows)
	data := cells(int(n), seed)
	less := func(a, b []byte) bool { return bytes.Compare(a, b) < 0 }
	var ns, transfers float64
	for _, sort := range []func(*sim.Coprocessor, sim.RegionID, int64, oblivious.LessFunc) error{oblivious.Sort, oblivious.SortOddEven} {
		var stats sim.Stats
		// The sampled time includes filling the region: n puts against the
		// network's n·log²n transfers.
		d, err := sampled(budget/2, func() error {
			host := sim.NewHost(0)
			cop, err := sim.NewCoprocessor(host, sim.Config{Sealer: sim.PlainSealer{}})
			if err != nil {
				return err
			}
			region := host.MustCreateRegion("sort", int(oblivious.NextPow2(n)))
			if err := cop.PutRange(region, 0, data); err != nil {
				return err
			}
			cop.ResetStats()
			err = sort(cop, region, n, less)
			stats = cop.Stats()
			return err
		})
		if err != nil {
			return err
		}
		ns += d
		transfers += float64(stats.Transfers())
	}
	res.set("oblivious.sort_ns_per_transfer", "ns", ns/transfers)
	res.set("oblivious.sort_transfers", "count", transfers)
	return nil
}

func probeSim(res *result, w workload, in *inputSet, seed uint64, budget time.Duration) error {
	host := sim.NewHost(0)
	cop, err := sim.NewCoprocessor(host, sim.Config{Sealer: sim.PlainSealer{}})
	if err != nil {
		return err
	}
	n := int64(w.rows)
	data := cells(w.rows, seed)
	region := host.MustCreateRegion("cells", w.rows)
	if err := cop.PutRange(region, 0, data); err != nil {
		return err
	}
	cop.ResetStats()
	m0 := readMem().mallocs
	var failed error
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	get := perOp(budget/4, func(i int) { _, err := cop.Get(region, int64(i)%n); keep(err) })
	put := perOp(budget/4, func(i int) { keep(cop.Put(region, int64(i)%n, data[int64(i)%n])) })
	getRange := perOp(budget/4, func(int) { _, err := cop.GetRange(region, 0, n); keep(err) })
	putRange := perOp(budget/4, func(int) { keep(cop.PutRange(region, 0, data)) })
	allocs := float64(readMem().mallocs-m0) / float64(cop.Stats().Transfers())
	load, err := sampled(budget/4, func() error {
		_, err := sim.LoadTable(sim.NewHost(0), sim.PlainSealer{}, "A", in.a)
		return err
	})
	keep(err)
	res.set("sim.get_ns", "ns", get)
	res.set("sim.put_ns", "ns", put)
	res.set("sim.getrange_ns_per_cell", "ns", getRange/float64(n))
	res.set("sim.putrange_ns_per_cell", "ns", putRange/float64(n))
	res.set("sim.allocs_per_transfer", "count", allocs)
	res.set("sim.load_table_us_per_row", "us", load/1e3/float64(n))
	return failed
}

func probeOCB(res *result, ocbMs, plainMs float64, budget time.Duration) error {
	sealer, err := sim.NewRandomOCBSealer()
	if err != nil {
		return err
	}
	pt := cells(1, 1)[0]
	ct := sealer.Seal(pt)
	ctBuf, ptBuf := make([]byte, 0, 2*len(ct)), make([]byte, 0, 2*len(pt))
	var failed error
	m0 := readMem().mallocs
	ops := 0
	seal := perOp(budget/2, func(int) { ops++; ctBuf = sealer.SealTo(ctBuf[:0], pt) })
	open := perOp(budget/2, func(int) {
		ops++
		var err error
		if ptBuf, err = sealer.OpenTo(ptBuf[:0], ct); err != nil && failed == nil {
			failed = err
		}
	})
	allocs := float64(readMem().mallocs-m0) / float64(ops)
	res.set("ocb.seal_ns", "ns", seal)
	res.set("ocb.open_ns", "ns", open)
	res.set("ocb.mb_per_s", "MB/s", 2*float64(len(pt))/(seal+open)*1e3)
	res.set("ocb.allocs_per_op", "count", allocs)
	res.set("ocb.share_of_run", "share", (ocbMs-plainMs)/ocbMs)
	return failed
}

func probeRelation(res *result, budget time.Duration) {
	schema := relation.KeyedSchema()
	row := relation.Tuple{relation.IntValue(1 << 33), relation.IntValue(7)}
	enc := schema.MustEncode(row)
	res.set("relation.encode_ns_per_row", "ns", perOp(budget/2, func(int) { schema.MustEncode(row) }))
	res.set("relation.decode_ns_per_row", "ns", perOp(budget/2, func(int) {
		if _, err := schema.Decode(enc); err != nil {
			panic(err) // the bytes are the encoder's own
		}
	}))
}

// probeWAL appends transition-sized records to a fresh log, once behind the
// same simulated device the workload uses and once on the bare filesystem.
func probeWAL(res *result, dir string, budget time.Duration) error {
	rec := wal.Record{Type: wal.TypeTransition, ContractID: "serve-wal-tenant-0-1234", From: 1, To: 2}
	appendTime := func(sub string, faults *wal.Faults) (float64, error) {
		log, err := wal.Open(filepath.Join(dir, sub), faults)
		if err != nil {
			return 0, err
		}
		defer log.Close()
		return sampled(budget/2, func() error { return log.Append(rec) })
	}
	device := wal.NewFaults()
	device.Set(wal.SiteSync, func() error { time.Sleep(deviceLatency); return nil })
	withDevice, err := appendTime("wal-device", device)
	if err != nil {
		return err
	}
	bare, err := appendTime("wal-bare", nil)
	res.set("wal.append_us", "us", withDevice/1e3)
	res.set("wal.realdisk_append_us", "us", bare/1e3)
	return err
}

// probeResultStore stores and fetches results of the workload's shape — S
// sealed join rows — in a disk-backed store.
func probeResultStore(res *result, w workload, in *inputSet, dir string, budget time.Duration) error {
	store, err := resultstore.Open(resultstore.Config{Dir: filepath.Join(dir, "resultstore")})
	if err != nil {
		return err
	}
	defer store.Close()
	schema := in.want.Schema
	rows := make([][]byte, in.want.Len())
	payload := 0
	for i, t := range in.want.Rows {
		rows[i] = append([]byte{1}, schema.MustEncode(t)...) // an oTuple: flag byte + row
		payload += len(rows[i])
	}
	meta := make([]byte, 128)
	var ids []string
	put, err := sampled(budget/2, func() error {
		ids = append(ids, fmt.Sprintf("probe-%d", len(ids)))
		return store.Put(ids[len(ids)-1], meta, rows)
	})
	if err != nil {
		return err
	}
	next := 0
	get, err := sampled(budget/2, func() error {
		_, _, err := store.Get(ids[next%len(ids)])
		next++
		return err
	})
	res.set("resultstore.put_us", "us", put/1e3)
	res.set("resultstore.get_us", "us", get/1e3)
	res.set("resultstore.bytes_per_result_byte", "ratio", float64(store.Bytes())/float64(len(ids)*payload))
	return err
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v, which it leaves unsorted.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s))-1e-9)) - 1
	return s[min(max(rank, 0), len(s)-1)]
}
