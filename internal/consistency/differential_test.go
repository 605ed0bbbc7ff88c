package consistency

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
	"blockadt/internal/prng"
)

// refBlockValidity is the full-scan BlockValidity: it looks up every block
// of every read, with no per-process prefix skip. It is the reference the
// prefix-aware checker must agree with.
func refBlockValidity(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	earliest := refEarliest(h)
	checked := 0
	for _, r := range h.Reads() {
		for _, b := range r.Chain {
			if b == blocktree.GenesisID {
				continue
			}
			checked++
			t, ok := earliest[b]
			if !ok {
				sink.addf("read by p%d returned %s containing %s, never appended", r.Op.Proc, r.Chain, string(b))
				continue
			}
			if t > r.Op.RspTime {
				sink.addf("read by p%d (rsp t=%d) returned %s before its append/update (t=%d)", r.Op.Proc, r.Op.RspTime, string(b), t)
			}
		}
	}
	return sink.verdict("BlockValidity", checked)
}

// refEverGrowingTree is the quadratic EverGrowingTree, stated from the
// finitization directly: read i is constrained unless no successful
// append is invoked after it responds (the plateau of the finite prefix),
// found by scanning the raw ops for such an append, and a constrained
// read is checked against every j ≥ i+W, with no suffix-minimum skip.
func refEverGrowingTree(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	score := opts.score()
	reads := h.Reads()
	w := opts.window(len(reads))
	growsLater := func(t int64) bool {
		for _, op := range h.Ops() {
			if op.Label.Kind == history.KindAppend && op.Complete && op.Result().OK && op.InvTime > t {
				return true
			}
		}
		return false
	}
	checked := 0
	for i := range reads {
		if !growsLater(reads[i].Op.RspTime) {
			continue
		}
		checked++
		si := score(reads[i].Chain)
		for j := i + w; j < len(reads); j++ {
			sj := score(reads[j].Chain)
			if sj > si || !history.RespondedBefore(*reads[i].Op, *reads[j].Op) {
				continue
			}
			sink.addf("read#%d by p%d score %d still matched by read#%d by p%d score %d after grace window %d",
				i, reads[i].Op.Proc, si, j, reads[j].Op.Proc, sj, w)
			break
		}
	}
	return sink.verdict("EverGrowingTree", checked)
}

// refStrongPrefix is StrongPrefix with Chain.HasPrefix on every adjacent
// pair: the element-compare reference for the one-position test.
func refStrongPrefix(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	reads := h.Reads()
	order := make([]int, len(reads))
	for i := range order {
		order[i] = i
	}
	// The same (unstable) sort as StrongPrefix, so equal-length chains
	// are paired alike and the reports match byte for byte.
	sort.Slice(order, func(a, b int) bool { return len(reads[order[a]].Chain) < len(reads[order[b]].Chain) })
	checked := 0
	for i := 1; i < len(order); i++ {
		a, b := reads[order[i-1]].Chain, reads[order[i]].Chain
		checked++
		if !b.HasPrefix(a) {
			sink.addf("neither of %s and %s prefixes the other", a, b)
		}
	}
	return sink.verdict("StrongPrefix", checked)
}

// refEventualPrefix is EventualPrefix with Chain.CommonPrefix throughout
// and a witness search for every violating read, recorded or not: the
// element-compare reference for the binary search and the sink gate.
func refEventualPrefix(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	score := opts.score()
	reads := h.Reads()
	w := opts.window(len(reads))
	n := len(reads)
	suffix := make([]int, n)
	var cp history.Chain
	for j := n - 1; j >= 0; j-- {
		if j == n-1 {
			cp = reads[j].Chain
		} else {
			cp = cp.CommonPrefix(reads[j].Chain)
		}
		suffix[j] = score(cp)
	}
	checked := 0
	for i := range reads {
		checked++
		s, j := score(reads[i].Chain), i+w
		if j < n && suffix[j] < s {
			hi, ki := findDivergentPair(reads[j:], false, score, s)
			sink.addf("read#%d score %d: reads #%d and #%d past window %d share prefix score %d < %d",
				i, s, j+hi, j+ki, w, suffix[j], s)
		}
	}
	return sink.verdict("EventualPrefix", checked)
}

// stepClock is a virtual clock the twin recorders share.
type stepClock struct{ t int64 }

func (c *stepClock) Now() int64 { return c.t }

// twin records one history twice: with the chains as given (views of the
// buffers the caller owns) and with every chain cloned, so no two recorded
// chains share memory.
type twin struct {
	clock          *stepClock
	shared, cloned *history.Recorder
}

func newTwin() *twin {
	c := &stepClock{}
	return &twin{clock: c, shared: history.NewRecorderWithClock(c), cloned: history.NewRecorderWithClock(c)}
}

func (w *twin) at(t int64) { w.clock.t = t }

func (w *twin) append(p history.ProcID, parent, b history.BlockRef) {
	for _, rec := range []*history.Recorder{w.shared, w.cloned} {
		op := rec.Invoke(p, history.Label{Kind: history.KindAppend, Block: b})
		rec.Respond(op, history.Label{Kind: history.KindAppend, Block: b, Parent: parent, OK: true})
	}
}

func (w *twin) update(p history.ProcID, parent, b history.BlockRef) {
	for _, rec := range []*history.Recorder{w.shared, w.cloned} {
		rec.Record(p, history.Label{Kind: history.KindUpdate, Parent: parent, Block: b})
	}
}

func (w *twin) read(p history.ProcID, c history.Chain) {
	for _, rc := range []struct {
		rec   *history.Recorder
		chain history.Chain
	}{{w.shared, c}, {w.cloned, c.Clone()}} {
		op := rc.rec.Invoke(p, history.Label{Kind: history.KindRead})
		rc.rec.Respond(op, history.Label{Kind: history.KindRead, Chain: rc.chain})
	}
}

func (w *twin) histories() (shared, cloned *history.History) {
	return w.shared.Snapshot(), w.cloned.Snapshot()
}

// simulateTwin runs n processes, each with its own SeqBlockTree, over
// ticks virtual time units: processes mine on their selected tip,
// broadcast with random delays (applied as update events once the parent
// is known), and read through ReadIDs, so the shared history records the
// views ReadIDs hands out.
func simulateTwin(w *twin, seed uint64, n, ticks int, sel blocktree.Selector) {
	src := prng.New(seed)
	type delivery struct {
		at            int64
		to            int
		parent, block blocktree.BlockID
	}
	trees := make([]*blocktree.SeqBlockTree, n)
	for i := range trees {
		trees[i] = blocktree.NewSeq(sel, blocktree.AcceptAll)
	}
	var inflight []delivery
	mined := 0
	for t := int64(1); t <= int64(ticks); t++ {
		w.at(t)
		var later []delivery
		for _, d := range inflight {
			if d.at <= t && trees[d.to].Tree().Has(d.parent) {
				if trees[d.to].Update(d.parent, &blocktree.Block{ID: d.block, Work: 1}) == nil {
					w.update(history.ProcID(d.to), history.BlockRef(d.parent), history.BlockRef(d.block))
				}
				continue
			}
			later = append(later, d)
		}
		inflight = later
		for p := 0; p < n; p++ {
			if src.Intn(4) == 0 {
				parent := trees[p].Tip().ID
				id := blocktree.BlockID(fmt.Sprintf("s%d-%d", seed%100, mined))
				mined++
				w.append(history.ProcID(p), history.BlockRef(parent), history.BlockRef(id))
				trees[p].Update(parent, &blocktree.Block{ID: id, Work: 1})
				for q := 0; q < n; q++ {
					if q != p {
						inflight = append(inflight, delivery{at: t + 1 + int64(src.Intn(6)), to: q, parent: parent, block: id})
					}
				}
			}
			if src.Intn(2) == 0 {
				w.read(history.ProcID(p), trees[p].ReadIDs())
			}
		}
	}
}

// injectViolations appends hand-built reads over views of one buffer:
// process 7 reads a chain containing a block appended after the read's
// response, then extends it cleanly; process 8 reads a never-appended
// block and then a clean extension of that view (the prefix must be
// re-checked, since the earlier read was not clean); process 9 drops its
// score below an earlier read's long after the grace window.
func injectViolations(w *twin, t0 int64) {
	buf := history.Chain{blocktree.GenesisID, "v1", "v2", "v3", "v4", "v5"}
	w.at(t0)
	w.append(7, "b0", "v1")
	w.append(7, "v1", "v2")
	w.read(7, buf[:3:3])
	w.at(t0 + 1)
	w.read(7, buf[:4:4]) // v3 is appended only at t0+5
	w.at(t0 + 5)
	w.append(7, "v2", "v3")
	w.append(7, "v3", "v4")
	w.append(7, "v4", "v5")
	w.at(t0 + 6)
	w.read(7, buf[:6:6])

	bad := history.Chain{blocktree.GenesisID, "v1", "ghost", "v6", "v7"}
	w.append(8, "ghost", "v6")
	w.append(8, "v6", "v7")
	w.read(8, bad[:3:3])
	w.at(t0 + 7)
	w.read(8, bad[:5:5])

	w.read(9, buf[:6:6])
	for k := 0; k < 12; k++ {
		w.at(t0 + 8 + int64(k))
		b := history.BlockRef(fmt.Sprintf("w%d", k))
		w.append(9, "v5", b)
		w.read(9, buf[:6:6])
	}
	w.read(9, buf[:2:2])
}

// injectTwoParents has one process read block x under u1 and then, after
// a reorg, under u2: the conflict lies inside the previous read's length
// but past the two reads' common prefix. The reads no longer agree on one
// parent per block id, and a one-position prefix test would wrongly
// accept [b0 u1 x] ⊑ [b0 u2 x y].
func injectTwoParents(w *twin, t0 int64) {
	w.at(t0)
	w.read(10, history.Chain{blocktree.GenesisID, "u1", "x"})
	w.at(t0 + 1)
	w.read(10, history.Chain{blocktree.GenesisID, "u2", "x", "y"})
}

// injectRootMismatch adds reads rooted at a block other than genesis.
// Their ids never follow genesis, so the reads still agree on parents.
func injectRootMismatch(w *twin, t0 int64) {
	r := history.Chain{"g", "q1", "q2", "q3"}
	w.at(t0)
	w.read(12, r[:3:3])
	w.read(12, r)
}

// injectRootReappears adds a read in which genesis reappears mid-chain,
// beside a read of its prefix.
func injectRootReappears(w *twin, t0 int64) {
	c := history.Chain{blocktree.GenesisID, "q1", blocktree.GenesisID, "q1", "q2"}
	w.at(t0)
	w.read(13, c[:2:2])
	w.read(13, c)
}

// injectEmptyChain adds empty reads around a genesis-only read.
func injectEmptyChain(w *twin, t0 int64) {
	w.at(t0)
	w.read(14, history.Chain{})
	w.read(14, history.Chain{blocktree.GenesisID})
	w.read(14, nil)
}

// injectMixedClones has one process alternate between views of a buffer
// and clones of it, so its reads share memory with some predecessors and
// not others, then fork off the buffer.
func injectMixedClones(w *twin, t0 int64) {
	buf := history.Chain{blocktree.GenesisID, "m1", "m2", "m3", "m4"}
	w.at(t0)
	w.read(15, buf[:2:2])
	w.read(15, buf[:3:3].Clone())
	w.read(15, buf[:4:4])
	w.read(15, buf[:4:4].Clone())
	w.read(15, buf[:5:5])
	w.read(15, history.Chain{blocktree.GenesisID, "m1", "m5"})
}

// injections are the hand-built reads the differential tests append to
// simulated histories, one kind per history so that a history whose reads
// disagree on parents does not hide the other kinds. agree is what
// History.ReadsAgreeOnParents must report afterwards.
var injections = []struct {
	name  string
	add   func(*twin, int64)
	agree bool
}{
	{"none", func(*twin, int64) {}, true},
	{"violations", injectViolations, true},
	{"two-parents", injectTwoParents, false},
	{"root-mismatch", injectRootMismatch, true},
	{"root-reappears", injectRootReappears, true},
	{"empty-chain", injectEmptyChain, true},
	{"mixed-clones", injectMixedClones, true},
	{"out-of-range-procs", injectOutOfRangeProcs, true},
	{"fresh-buffer-reorg", injectFreshBufferReorg, true},
	{"procs-disagree", injectProcsDisagree, false},
}

// TestDifferentialCheckers checks the prefix-aware BlockValidity, the
// suffix-minimum EverGrowingTree and the parent-agreement StrongPrefix and
// EventualPrefix against their full-scan, element-compare references, on
// histories recorded through ReadIDs (shared chains), on the same
// histories with every chain cloned, and with each kind of injected read.
// Every verdict field must agree across the two implementations and
// across shared and cloned chains.
func TestDifferentialCheckers(t *testing.T) {
	type impl struct {
		name string
		new  func(*history.History, Options) Verdict
		ref  func(*history.History, Options) Verdict
	}
	impls := []impl{
		{"BlockValidity", BlockValidity, refBlockValidity},
		{"EverGrowingTree", EverGrowingTree, refEverGrowingTree},
		{"StrongPrefix", StrongPrefix, refStrongPrefix},
		{"EventualPrefix", EventualPrefix, refEventualPrefix},
	}
	optsList := []Options{{}, {GraceWindow: 3}, {GraceWindow: 3, MaxViolations: 2}}
	selectors := []blocktree.Selector{blocktree.LongestChain{}, blocktree.GHOST{}}
	violating := map[string]int{}
	for seed := uint64(1); seed <= 12; seed++ {
		for _, inj := range injections {
			w := newTwin()
			simulateTwin(w, seed, 4, 60, selectors[seed%2])
			inj.add(w, 1000)
			shared, cloned := w.histories()
			if sharedPrefixReads(shared) == 0 {
				t.Fatalf("seed %d: no read shares its buffer with the previous read; the test would not exercise the prefix skip", seed)
			}
			if sharedPrefixReads(cloned) != 0 {
				t.Fatalf("seed %d: cloned history still shares chain memory", seed)
			}
			for _, h := range []*history.History{shared, cloned} {
				if got := h.ReadsAgreeOnParents(); got != inj.agree {
					t.Fatalf("seed %d %s: ReadsAgreeOnParents = %v, want %v", seed, inj.name, got, inj.agree)
				}
			}
			for _, opts := range optsList {
				for _, im := range impls {
					want := im.ref(cloned, opts)
					for name, got := range map[string]Verdict{
						"new/shared": im.new(shared, opts),
						"new/cloned": im.new(cloned, opts),
						"ref/shared": im.ref(shared, opts),
					} {
						if !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d %s %s %s %+v:\n got  %+v\n want %+v", seed, inj.name, im.name, name, opts, got, want)
						}
					}
					if !want.Satisfied {
						violating[im.name]++
					}
				}
				if got, want := Classify(shared, opts), Classify(cloned, opts); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %s %+v: Classify differs between shared and cloned chains", seed, inj.name, opts)
				}
			}
		}
	}
	for _, im := range impls {
		if violating[im.name] == 0 {
			t.Errorf("no history violated %s; the differential never compares violation reports", im.name)
		}
	}
}

// TestDifferentialInjectedViolationCounts pins what the injected
// violations must produce, so the differential test cannot pass by both
// implementations missing them: the future block is reported once, the
// never-appended block twice (the clean extension re-checks the unclean
// prefix), and process 9's score drop once.
func TestDifferentialInjectedViolationCounts(t *testing.T) {
	w := newTwin()
	injectViolations(w, 1)
	shared, _ := w.histories()
	bv := BlockValidity(shared, Options{})
	if bv.TotalViolations != 3 {
		t.Fatalf("BlockValidity violations = %d, want 3: %v", bv.TotalViolations, bv.Violations)
	}
	egt := EverGrowingTree(shared, Options{GraceWindow: 3})
	if egt.Satisfied {
		t.Fatal("EverGrowingTree missed the score drop past the grace window")
	}

	// Alone, the two-parents reads violate Strong prefix once, found only
	// by an element compare.
	w = newTwin()
	injectTwoParents(w, 1)
	shared, _ = w.histories()
	if sp := StrongPrefix(shared, Options{}); sp.TotalViolations != 1 {
		t.Fatalf("StrongPrefix violations = %d, want 1: %v", sp.TotalViolations, sp.Violations)
	}
}

// TestEventualPrefixLateDivergence records 3999 reads of one chain
// growing to 500 blocks and a final read that forks at height 1, so
// nearly every read violates Eventual prefix against the same late pair.
// The report keeps only MaxViolations witnesses, so only those may be
// searched for: with cloned chains a witness search per violating read,
// each comparing the reads after it element by element, is cubic in the
// history. The verdict must equal the reference that searches for every
// violation, run on views of one buffer where it stays quadratic.
func TestEventualPrefixLateDivergence(t *testing.T) {
	const reads, height = 4000, 500
	w := newTwin()
	buf := make(history.Chain, height+1)
	buf[0] = blocktree.GenesisID
	for i := 1; i <= height; i++ {
		buf[i] = history.BlockRef(fmt.Sprintf("c%d", i))
	}
	for i := 0; i < reads-1; i++ {
		w.at(int64(i))
		n := 2 + i*(height-1)/reads
		w.read(history.ProcID(i%4), buf[:n:n])
	}
	w.read(0, history.Chain{blocktree.GenesisID, "c1", "fork"})
	shared, cloned := w.histories()
	want := refEventualPrefix(shared, Options{})
	if want.TotalViolations < 2000 {
		t.Fatalf("only %d violations; the history does not diverge late", want.TotalViolations)
	}
	for name, h := range map[string]*history.History{"shared": shared, "cloned": cloned} {
		if got := EventualPrefix(h, Options{}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

// sharedPrefixReads counts reads whose chain starts at the same element
// in memory as the previous read of the same process.
func sharedPrefixReads(h *history.History) int {
	last := map[history.ProcID]history.Chain{}
	n := 0
	for _, r := range h.Reads() {
		if prev := last[r.Op.Proc]; len(prev) > 0 && len(r.Chain) > 0 && &prev[0] == &r.Chain[0] {
			n++
		}
		last[r.Op.Proc] = r.Chain
	}
	return n
}
