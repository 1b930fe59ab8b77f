package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"ppj/internal/oblivious"
	"ppj/internal/relation"
	"ppj/internal/sim"
)

// The schedule lockfile checks in what every algorithm row and every
// exported oblivious primitive charges and touches on a fixed case grid, so
// a change to any schedule shows up as a diff of testdata/schedules.golden.
// Regenerate it with
//
//	go test ./internal/core -run TestScheduleLockfile -update
//
// which refuses to raise any transfer count — summed or on any one device —
// unless -allow-increase is also given: transfer counts move downward only.

var (
	updateSchedules = flag.Bool("update", false, "rewrite "+scheduleLockfile+" from the schedules this build runs")
	allowIncrease   = flag.Bool("allow-increase", false, "let -update raise a transfer count")
)

const scheduleLockfile = "testdata/schedules.golden"

// schedule is one lockfile line: what one case charged, summed over its
// fleet, the closed form's transfer count for it, and each device's
// transfer count and trace digest.
type schedule struct {
	name    string
	refused bool
	stats   sim.Stats
	model   int64
	devices []deviceTrace
}

type deviceTrace struct {
	transfers uint64
	digest    uint64
}

type statField struct {
	key string
	v   *uint64
}

// statFields names the sim.Stats fields in line order.
func statFields(s *sim.Stats) []statField {
	return []statField{
		{"gets", &s.Gets}, {"puts", &s.Puts}, {"logical", &s.LogicalReads},
		{"cmp", &s.Comparisons}, {"pred", &s.PredEvals}, {"disk", &s.DiskRequests},
	}
}

func (s schedule) String() string {
	if s.refused {
		return s.name + " refused"
	}
	var b strings.Builder
	b.WriteString(s.name)
	for _, f := range statFields(&s.stats) {
		fmt.Fprintf(&b, " %s=%d", f.key, *f.v)
	}
	fmt.Fprintf(&b, " model=%d dev=", s.model)
	for i, d := range s.devices {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%#016x", d.transfers, d.digest)
	}
	return b.String()
}

func parseSchedule(line string) (schedule, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return schedule{}, fmt.Errorf("short lockfile line %q", line)
	}
	s := schedule{name: fields[0]}
	if len(fields) == 2 && fields[1] == "refused" {
		s.refused = true
		return s, nil
	}
	vals := map[string]string{}
	for _, f := range fields[1:] {
		k, v, _ := strings.Cut(f, "=")
		vals[k] = v
	}
	var err error
	for _, f := range statFields(&s.stats) {
		if *f.v, err = strconv.ParseUint(vals[f.key], 10, 64); err != nil {
			return schedule{}, fmt.Errorf("%s: %s: %w", s.name, f.key, err)
		}
	}
	if s.model, err = strconv.ParseInt(vals["model"], 10, 64); err != nil {
		return schedule{}, fmt.Errorf("%s: model: %w", s.name, err)
	}
	for _, d := range strings.Split(vals["dev"], ",") {
		tr, dg, _ := strings.Cut(d, ":")
		var dt deviceTrace
		if dt.transfers, err = strconv.ParseUint(tr, 10, 64); err != nil {
			return schedule{}, fmt.Errorf("%s: device transfers: %w", s.name, err)
		}
		if dt.digest, err = strconv.ParseUint(dg, 0, 64); err != nil {
			return schedule{}, fmt.Errorf("%s: device digest: %w", s.name, err)
		}
		s.devices = append(s.devices, dt)
	}
	return s, nil
}

// readLockfile returns the lockfile's lines by case name; a missing file is
// an empty lockfile.
func readLockfile(path string) (map[string]schedule, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]schedule{}, nil
	} else if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]schedule{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			s, err := parseSchedule(line)
			if err != nil {
				return nil, err
			}
			out[s.name] = s
		}
	}
	return out, sc.Err()
}

// increases lists the cases of next that charge more transfers than the
// same case in prev, summed or on any one device.
func increases(prev map[string]schedule, next []schedule) []string {
	var up []string
	for _, s := range next {
		old, ok := prev[s.name]
		if !ok || old.refused || s.refused {
			continue
		}
		raised := s.stats.Transfers() > old.stats.Transfers() || len(s.devices) != len(old.devices)
		for i := 0; !raised && i < len(s.devices); i++ {
			raised = s.devices[i].transfers > old.devices[i].transfers
		}
		if raised {
			up = append(up, fmt.Sprintf("%s\n\twas %s", s, old))
		}
	}
	return up
}

const lockfileHeader = `# Schedule lockfile: one line per case — what the case charged summed over
# its fleet (sim.Stats), the closed-form transfer count, and per device
# "transfers:Trace.Digest()". Regenerate with
#   go test ./internal/core -run TestScheduleLockfile -update
# which refuses to raise a transfer count unless -allow-increase is given.
`

// writeLockfile replaces the lockfile at path with next, refusing — and
// leaving the file untouched — if any case's transfers rise over prev and
// allowIncrease is false.
func writeLockfile(path string, prev map[string]schedule, next []schedule, allowIncrease bool) error {
	if up := increases(prev, next); len(up) > 0 && !allowIncrease {
		return fmt.Errorf("%d cases raise a transfer count (pass -allow-increase to accept):\n%s",
			len(up), strings.Join(up, "\n"))
	}
	var b strings.Builder
	b.WriteString(lockfileHeader)
	for _, s := range next {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// TestScheduleLockfile runs every case and compares it with the lockfile,
// one subtest per row and one for the primitives.
func TestScheduleLockfile(t *testing.T) {
	want, err := readLockfile(scheduleLockfile)
	if err != nil {
		t.Fatal(err)
	}
	var got []schedule
	groups := 0
	for _, g := range lockGroups() {
		t.Run(g.name, func(t *testing.T) {
			groups++
			lines := g.run(t)
			got = append(got, lines...)
			if *updateSchedules {
				return
			}
			seen := map[string]bool{}
			for _, s := range lines {
				seen[s.name] = true
				if w, ok := want[s.name]; !ok {
					t.Errorf("%s: not in the lockfile; this build runs\n\t%s", s.name, s)
				} else if w.String() != s.String() {
					t.Errorf("%s: schedule changed\n\tlockfile %s\n\tthis run %s", s.name, w, s)
				}
			}
			for name := range want {
				if strings.HasPrefix(name, g.name+"/") && !seen[name] {
					t.Errorf("%s: in the lockfile but no longer run", name)
				}
			}
			if t.Failed() {
				t.Log("if the change is intended, regenerate with -update (see schedules_test.go)")
			}
		})
	}
	if *updateSchedules {
		if groups != len(lockGroups()) {
			t.Fatal("-update rewrites the whole lockfile: run TestScheduleLockfile without a subtest filter")
		}
		if err := writeLockfile(scheduleLockfile, want, got, *allowIncrease); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScheduleLockfileRefusesIncrease pins -update's guard: a raised summed
// or per-device transfer count is refused without -allow-increase and the
// lockfile is left as it was; a lowered one is written.
func TestScheduleLockfileRefusesIncrease(t *testing.T) {
	path := t.TempDir() + "/schedules.golden"
	base := schedule{name: "x/P2", stats: sim.Stats{Gets: 4, Puts: 4}, model: 8,
		devices: []deviceTrace{{4, 0x1}, {4, 0x2}}}
	if err := writeLockfile(path, nil, []schedule{base}, false); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raisedSum, raisedDevice, lowered := base, base, base
	raisedSum.stats.Gets = 5
	raisedDevice.devices = []deviceTrace{{6, 0x1}, {2, 0x2}}
	lowered.stats.Gets, lowered.devices = 3, []deviceTrace{{3, 0x3}, {4, 0x2}}
	for _, raised := range []schedule{raisedSum, raisedDevice} {
		prev, err := readLockfile(path)
		if err != nil {
			t.Fatal(err)
		}
		if prev["x/P2"].String() != base.String() {
			t.Fatalf("lockfile round trip: %s, wrote %s", prev["x/P2"], base)
		}
		if err := writeLockfile(path, prev, []schedule{raised}, false); err == nil {
			t.Errorf("-update accepted %s over %s", raised, base)
		}
		if after, _ := os.ReadFile(path); string(after) != string(before) {
			t.Fatal("a refused -update rewrote the lockfile")
		}
		if err := writeLockfile(t.TempDir()+"/s", prev, []schedule{raised}, true); err != nil {
			t.Errorf("-update -allow-increase refused %s: %v", raised, err)
		}
	}
	prev, _ := readLockfile(path)
	if err := writeLockfile(path, prev, []schedule{lowered}, false); err != nil {
		t.Fatalf("-update refused a lower count: %v", err)
	}
	if after, _ := readLockfile(path); after["x/P2"].String() != lowered.String() {
		t.Fatalf("lockfile holds %s after lowering, want %s", after["x/P2"], lowered)
	}
}

// record turns one finished case into its lockfile line.
func record(name string, cops []*sim.Coprocessor, stats sim.Stats, model int64) schedule {
	s := schedule{name: name, stats: stats, model: model}
	for _, c := range cops {
		s.devices = append(s.devices, deviceTrace{c.Stats().Transfers(), c.Trace().Digest()})
	}
	return s
}

// lockGroup is one subtest's share of the lockfile: the cases whose names
// start with name+"/".
type lockGroup struct {
	name string
	run  func(t *testing.T) []schedule
}

// lockGroups lists the lockfile in file order: each algorithm row,
// Algorithm 6's segmented schedules, then the oblivious primitives.
func lockGroups() []lockGroup {
	var gs []lockGroup
	for _, alg := range Algorithms {
		gs = append(gs, lockGroup{alg.Name, func(t *testing.T) []schedule { return rowSchedules(t, alg) }})
	}
	return append(gs, lockGroup{"alg6seg", alg6Schedules}, lockGroup{"oblivious", primitiveSchedules})
}

// lockSizes is the |A|×|B| grid every row runs: empty, one row, both sides
// of a power of two, and one unequal pair.
var lockSizes = [][2]int{{0, 0}, {1, 1}, {63, 63}, {64, 64}, {65, 65}, {40, 33}}

// lockRows fixes each row's device memory M and the key space its inputs
// draw from. Chapter 4's rows join near-unique keys at N = 3 and M = 2, so
// Algorithm 2 runs γ = 2 passes; the others join 32 distinct keys, so
// Algorithm 5 rescans and Algorithm 7 expands duplicates, and Algorithm 6's
// M covers S, where its closed form is exact.
var lockRows = map[string]struct {
	mem      int
	keySpace int64
}{
	"alg1": {2, 1 << 20}, "alg2": {2, 1 << 20}, "alg3": {2, 1 << 20},
	"alg4": {8, 32}, "alg5": {8, 32}, "alg6": {256, 32}, "alg7": {8, 32},
}

// lockInputs builds a row's relations, inputs and join size at one size.
func lockInputs(t *testing.T, alg *Algorithm, nA, nB int) (relA, relB *relation.Relation, in Inputs, s int64) {
	t.Helper()
	ks := lockRows[alg.Name].keySpace
	relA = relation.GenKeyed(relation.NewRand(7), nA, ks)
	relB = relation.GenKeyed(relation.NewRand(8), nB, ks)
	eq := keyEqui(t, relA, relB)
	in = Inputs{Pred: eq, N: int64(min(3, nB)), Epsilon: 1e-6}
	return relA, relB, in, int64(relation.ReferenceJoin(relA, relB, eq).Len())
}

// runRow runs alg on a fresh P-device fleet over relA and relB. Empty inputs
// are refused by every row but Algorithm 7's.
func runRow(t *testing.T, alg *Algorithm, p int, relA, relB *relation.Relation, in Inputs) ([]*sim.Coprocessor, Result, CacheUse, bool) {
	t.Helper()
	h := sim.NewHost(0)
	cops := newFleet(t, h, p, lockRows[alg.Name].mem)
	res, use, err := alg.Run(cops, loadTables(t, h, cops[0].Sealer(), relA, relB), in)
	if refused := relA.Len() == 0 && alg.Name != "alg7"; (err != nil) != refused {
		t.Fatalf("%s %dx%d at P=%d: err = %v", alg.Name, relA.Len(), relB.Len(), p, err)
	}
	return cops, res, use, err != nil
}

// rowSchedules runs one row × lockSizes × admissible P ∈ {1, 2, 4}, and
// for a row that uses the cache, cold (empty cache) and warm (a cache
// filled by one earlier run) beside uncached.
func rowSchedules(t *testing.T, alg *Algorithm) []schedule {
	modes := []string{""}
	if alg.UsesCache {
		modes = append(modes, "cold", "warm")
	}
	var out []schedule
	for _, sz := range lockSizes {
		relA, relB, base, s := lockInputs(t, alg, sz[0], sz[1])
		for _, p := range []int{1, 2, 4} {
			if alg.Devices(p) != p {
				continue
			}
			for _, mode := range modes {
				name := fmt.Sprintf("%s/%dx%d/P%d", alg.Name, sz[0], sz[1], p)
				in := base
				if mode != "" {
					name += "/" + mode
					in.Cache, in.KeyA, in.KeyB = newMemCache(), "A", "B"
				}
				if mode == "warm" {
					runRow(t, alg, p, relA, relB, in)
				}
				cops, res, use, refused := runRow(t, alg, p, relA, relB, in)
				if refused {
					out = append(out, schedule{name: name, refused: true})
					continue
				}
				model := alg.Transfers([]int64{int64(sz[0]), int64(sz[1])}, s, int64(lockRows[alg.Name].mem), in, use)
				// The closed form is what a fleet charges, except Algorithm 5's
				// (Σᵢ ⌈blkᵢ/M⌉ scans) at P > 1.
				if exact := p == 1 || alg.Name != "alg5"; exact && int64(res.Stats.Transfers()) != model {
					t.Errorf("%s: measured %d transfers, closed form %d", name, res.Stats.Transfers(), model)
				}
				out = append(out, record(name, cops, res.Stats, model))
			}
		}
	}
	return out
}

// alg6Schedules runs Join6 and Join6OnePass (declaring the true S) on
// shapes the alg6 row's M = 256 never reaches: S = 0, S ≤ M, two with S > M
// (the random-order pass and the decoy filter), and one whose single
// segment blemishes (the salvage). Each line's name carries the report's S,
// n* and segment count and whether it blemished. Join6Transfers bounds a
// clean run's transfers once S > M, so the model is checked as a bound.
func alg6Schedules(t *testing.T) []schedule {
	shapes := []struct {
		seed         uint64
		nA, nB, s, m int
		eps          float64
	}{
		{61, 5, 9, 0, 4, 1e-9},
		{41, 6, 10, 4, 64, 1e-9},
		{53, 8, 12, 9, 3, 1e-9},
		{59, 6, 10, 7, 3, 0.5},
		{67, 30, 30, 30, 1, 0.5},
	}
	var out []schedule
	for _, sh := range shapes {
		relA, relB := genJoinSized(sh.seed, sh.nA, sh.nB, sh.s)
		pred := relation.Pairwise(keyEqui(t, relA, relB))
		for _, entry := range []string{"Join6", "Join6OnePass"} {
			h := sim.NewHost(0)
			cop := newCop(t, h, sh.m, 7)
			tabs := loadTables(t, h, cop.Sealer(), relA, relB)
			var rep Join6Report
			var err error
			if entry == "Join6" {
				rep, err = Join6(cop, tabs, pred, sh.eps)
			} else {
				rep, err = Join6OnePass(cop, tabs, pred, sh.eps, int64(sh.s))
			}
			name := fmt.Sprintf("alg6seg/%s/%dx%d.M%d.eps%g/S%d.nstar%d.segs%d", entry, sh.nA, sh.nB, sh.m, sh.eps, rep.S, rep.NStar, rep.Segments)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Blemished {
				name += ".blemished"
			}
			model := Join6Transfers([]int64{int64(sh.nA), int64(sh.nB)}, int64(sh.s), int64(sh.m), sh.eps)
			if got := int64(rep.Stats.Transfers()); !rep.Blemished && got > model {
				t.Errorf("%s: measured %d transfers over the bound %d", name, got, model)
			}
			out = append(out, record(name, []*sim.Coprocessor{cop}, rep.Stats, model))
		}
	}
	return out
}

// primitiveSchedules runs the exported oblivious primitives. Each case's
// region holds the cells (i·7919+3) mod 101 as 8-byte big-endian integers,
// loaded through device 0 (so the load is part of its trace) before the
// counters are reset. The schedules ignore cell contents, so Distribute's
// and Compact's cells need not form a valid expansion input.
func primitiveSchedules(t *testing.T) []schedule {
	less := func(a, b []byte) bool { return binary.BigEndian.Uint64(a) < binary.BigEndian.Uint64(b) }
	val := func(pt []byte) int64 { return int64(binary.BigEndian.Uint64(pt)) }
	type prim struct {
		name  string
		p     int
		cells int64
		model int64
		run   func(cops []*sim.Coprocessor, id sim.RegionID) error
	}
	var cases []prim
	// networks adds the block networks' cases at block size b: the cell
	// networks' (b = 1) lines carry no suffix, the others end in /B<b>.
	networks := func(b int64) {
		sfx := ""
		if b > 1 {
			sfx = fmt.Sprintf("/B%d", b)
		}
		for _, n := range []int64{2, 5, 8, 13, 64, 100} {
			m := oblivious.NextPow2(n)
			if b == 1 {
				cases = append(cases, prim{fmt.Sprintf("oblivious/Sort/n%d/P1", n), 1, m, oblivious.SortTransfers(n, 1),
					func(cops []*sim.Coprocessor, id sim.RegionID) error { return oblivious.Sort(cops[0], id, n, less) }})
			}
			for _, lo := range []int64{0, 16} {
				for _, p := range []int{1, 2, 4} {
					cases = append(cases, prim{fmt.Sprintf("oblivious/SortSpan/lo%d/n%d/P%d%s", lo, n, p, sfx), p, lo + m, oblivious.SortTransfers(n, b),
						func(cops []*sim.Coprocessor, id sim.RegionID) error {
							return oblivious.SortSpan(cops, id, lo, n, b, less)
						}})
				}
			}
		}
		for _, m := range []int64{2, 8, 64, 128} {
			for _, p := range []int{1, 2, 4} {
				cases = append(cases, prim{fmt.Sprintf("oblivious/MergeHalves/m%d/P%d%s", m, p, sfx), p, m, oblivious.MergeHalvesTransfers(m, b),
					func(cops []*sim.Coprocessor, id sim.RegionID) error {
						return oblivious.MergeHalves(cops, id, m, b, less)
					}})
			}
			for _, p := range []int{1, 2, 4} {
				cases = append(cases, prim{fmt.Sprintf("oblivious/Distribute/m%d/P%d%s", m, p, sfx), p, m, oblivious.DistributeTransfers(m, b),
					func(cops []*sim.Coprocessor, id sim.RegionID) error {
						return oblivious.Distribute(cops, id, m, b, func(pt []byte) (bool, int64) { return val(pt)%2 == 0, val(pt) })
					}})
			}
		}
		for _, n := range []int64{0, 1, 63, 64, 65} {
			for _, p := range []int{1, 2, 4} {
				cases = append(cases, prim{fmt.Sprintf("oblivious/Compact/n%d/P%d%s", n, p, sfx), p, n, oblivious.CompactTransfers(n, b),
					func(cops []*sim.Coprocessor, id sim.RegionID) error {
						return oblivious.Compact(cops, id, n, b, func(pt []byte) (bool, int64) { return val(pt)%2 == 0, val(pt) % 7 })
					}})
			}
		}
	}
	networks(1)
	for _, n := range []int64{5, 64, 100} {
		cases = append(cases, prim{fmt.Sprintf("oblivious/FillForward/n%d/P1", n), 1, n, oblivious.FillForwardTransfers(n),
			func(cops []*sim.Coprocessor, id sim.RegionID) error {
				return oblivious.FillForward(cops[0], id, n, func(pt []byte) bool { return val(pt)%3 == 0 },
					func(_ int64, _, held []byte) ([]byte, error) { return held, nil })
			}})
	}
	for _, f := range [][3]int64{{100, 8, 8}, {50, 10, 6}, {300, 16, 48}} {
		for _, p := range []int{1, 2, 4} {
			cases = append(cases, prim{fmt.Sprintf("oblivious/Filter/w%d.mu%d.d%d/P%d", f[0], f[1], f[2], p), p, f[0],
				oblivious.FilterTransfers(f[0], f[1], f[2]),
				func(cops []*sim.Coprocessor, id sim.RegionID) error {
					_, err := oblivious.Filter(cops, id, f[0], f[1], f[2], func(pt []byte) bool { return val(pt)%2 == 1 }, "buf")
					return err
				}})
		}
	}

	networks(4)
	networks(oblivious.MaxBlock)

	out := make([]schedule, 0, len(cases))
	for _, c := range cases {
		h := sim.NewHost(0)
		cops := newFleet(t, h, c.p, 0)
		id := h.MustCreateRegion("g", int(c.cells))
		for i := int64(0); i < c.cells; i++ {
			if err := cops[0].Put(id, i, binary.BigEndian.AppendUint64(nil, uint64((i*7919+3)%101))); err != nil {
				t.Fatal(err)
			}
		}
		cops[0].ResetStats()
		if err := c.run(cops, id); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := sumStats(cops)
		if int64(st.Transfers()) != c.model {
			t.Errorf("%s: measured %d transfers, closed form %d", c.name, st.Transfers(), c.model)
		}
		out = append(out, record(c.name, cops, st, c.model))
	}
	return out
}
