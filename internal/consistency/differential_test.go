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
	earliest := map[history.BlockRef]int64{}
	for _, op := range h.Ops() {
		if op.Label.Kind != history.KindAppend && op.Label.Kind != history.KindUpdate || op.Label.Block == "" {
			continue
		}
		if old, ok := earliest[op.Label.Block]; !ok || op.InvTime < old {
			earliest[op.Label.Block] = op.InvTime
		}
	}
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

// refEverGrowingTree is the quadratic EverGrowingTree: it scans every
// j ≥ i+W for every non-exempt read, with no suffix-minimum skip.
func refEverGrowingTree(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	score := opts.score()
	reads := h.Reads()
	w := opts.window(len(reads))
	var growthTimes []int64
	for _, op := range h.Ops() {
		if op.Label.Kind == history.KindAppend && op.Complete && op.Response.OK || op.Label.Kind == history.KindUpdate {
			growthTimes = append(growthTimes, op.InvTime)
		}
	}
	sort.Slice(growthTimes, func(a, b int) bool { return growthTimes[a] < growthTimes[b] })
	checked := 0
	for i := range reads {
		after := len(growthTimes) - sort.Search(len(growthTimes), func(k int) bool { return growthTimes[k] > reads[i].Op.RspTime })
		if after < w {
			continue
		}
		checked++
		si := score(reads[i].Chain)
		for j := i + w; j < len(reads); j++ {
			sj := score(reads[j].Chain)
			if sj > si || !history.RespondedBefore(reads[i].Op, reads[j].Op) {
				continue
			}
			sink.addf("read#%d by p%d score %d still matched by read#%d by p%d score %d after grace window %d",
				i, reads[i].Op.Proc, si, j, reads[j].Op.Proc, sj, w)
			break
		}
	}
	return sink.verdict("EverGrowingTree", checked)
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
				if trees[d.to].Update(d.parent, blocktree.Block{ID: d.block, Work: 1}) {
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
				trees[p].Update(parent, blocktree.Block{ID: id, Work: 1})
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

// TestDifferentialCheckers checks the prefix-aware BlockValidity and the
// suffix-minimum EverGrowingTree against their full-scan references, on
// histories recorded through ReadIDs (shared chains), on the same
// histories with every chain cloned, and with injected violations. Every
// verdict field must agree across the two implementations and across
// shared and cloned chains.
func TestDifferentialCheckers(t *testing.T) {
	type impl struct {
		name string
		new  func(*history.History, Options) Verdict
		ref  func(*history.History, Options) Verdict
	}
	impls := []impl{
		{"BlockValidity", BlockValidity, refBlockValidity},
		{"EverGrowingTree", EverGrowingTree, refEverGrowingTree},
	}
	optsList := []Options{{}, {GraceWindow: 3}, {GraceWindow: 3, MaxViolations: 2}}
	selectors := []blocktree.Selector{blocktree.LongestChain{}, blocktree.GHOST{}}
	violating := 0
	for seed := uint64(1); seed <= 12; seed++ {
		for _, inject := range []bool{false, true} {
			w := newTwin()
			simulateTwin(w, seed, 4, 60, selectors[seed%2])
			if inject {
				injectViolations(w, 1000)
			}
			shared, cloned := w.histories()
			if sharedPrefixReads(shared) == 0 {
				t.Fatalf("seed %d: no read shares its buffer with the previous read; the test would not exercise the prefix skip", seed)
			}
			if sharedPrefixReads(cloned) != 0 {
				t.Fatalf("seed %d: cloned history still shares chain memory", seed)
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
							t.Errorf("seed %d inject=%v %s %s %+v:\n got  %+v\n want %+v", seed, inject, im.name, name, opts, got, want)
						}
					}
					if !want.Satisfied {
						violating++
					}
				}
				if got, want := Classify(shared, opts), Classify(cloned, opts); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d inject=%v %+v: Classify differs between shared and cloned chains", seed, inject, opts)
				}
			}
		}
	}
	if violating == 0 {
		t.Fatal("no history violated either property; the injected violations are not reaching the checkers")
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
