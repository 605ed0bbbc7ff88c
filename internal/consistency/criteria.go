package consistency

import (
	"math"
	"sort"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
)

// BlockValidity checks the Block validity property of Definition 3.2: every
// block in a chain returned by a read() is valid and was inserted via an
// append() whose invocation program-order-precedes the read's response.
// Replicated histories (Section 4.2) insert remote blocks via update
// events, so an update of the block before the read response at any process
// also witnesses insertion — updates only carry oracle-validated blocks in
// this reproduction (Definition 4.2 restricts E to appends of valid
// blocks).
func BlockValidity(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}

	// earliest[id] is the earliest time block id entered the system via
	// an append invocation or an update event (History.Earliest).
	earliest := h.Earliest()

	// last[p] is process p's previous read. When a read's chain starts at
	// the same element in memory as that read's (ReadIDs shares the
	// prefix), is at least as long, and the previous read was clean, its
	// first len(prev) blocks are already proven: their earliest insertion
	// is at most rsp(prev) ≤ rsp(r). Only the new suffix is checked; the
	// skipped blocks still count toward Checked. Process ids outside
	// [0, len(reads)) are not tracked and always take the full check.
	type procRead struct {
		chain   history.Chain
		rsp     int64
		checked int
		clean   bool
	}
	reads := h.Reads()
	var last []procRead
	checked := 0
	for _, r := range reads {
		var prev *procRead
		if p := int(r.Op.Proc); p >= 0 && p < len(reads) {
			if p >= len(last) {
				last = append(last, make([]procRead, p+1-len(last))...)
			}
			prev = &last[p]
		}
		from, n, before := 0, 0, sink.total
		if prev != nil && prev.clean && len(prev.chain) > 0 && len(r.Chain) >= len(prev.chain) &&
			&r.Chain[0] == &prev.chain[0] && prev.rsp <= r.Op.RspTime {
			from, n = len(prev.chain), prev.checked
		}
		for k := from; k < len(r.Chain); k++ {
			b := r.Chain[k]
			if b == blocktree.GenesisID {
				continue
			}
			n++
			t := earliest[r.IDs[k]]
			if t == history.NotInserted {
				sink.addf("read by p%d returned %s containing %s, never appended", r.Op.Proc, r.Chain, string(b))
				continue
			}
			if t > r.Op.RspTime {
				sink.addf("read by p%d (rsp t=%d) returned %s before its append/update (t=%d)", r.Op.Proc, r.Op.RspTime, string(b), t)
			}
		}
		checked += n
		if prev != nil {
			*prev = procRead{chain: r.Chain, rsp: r.Op.RspTime, checked: n, clean: sink.total == before}
		}
	}
	return sink.verdict("BlockValidity", checked)
}

// LocalMonotonicRead checks Definition 3.2's Local monotonic read: along
// each process's sequence of reads (process order ↦→), the score of the
// returned blockchain never decreases.
func LocalMonotonicRead(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	score := opts.score()
	checked := 0
	reads := h.Reads()
	// The permutation groups each process's reads together, in process
	// order, so a read's predecessor is the previous entry when the
	// process matches.
	var prev *history.ReadOp
	prevScore := 0
	for _, i := range readsByProcessOrder(h) {
		r := &reads[i]
		s := score(r.Chain)
		if prev != nil && prev.Op.Proc == r.Op.Proc {
			checked++
			if s < prevScore {
				sink.addf("p%d read %s (score %d) after %s (score %d)", r.Op.Proc, r.Chain, s, prev.Chain, prevScore)
			}
		}
		prev, prevScore = r, s
	}
	return sink.verdict("LocalMonotonicRead", checked)
}

// readsByProcessOrder returns the indexes into h.Reads() sorted by (proc,
// invocation sequence): the per-process order ↦→. History.Reads returns a
// shared cached slice, so the permutation is built instead of a private
// copy of the (much larger) read records.
//
// Reads are in response order, and a process is sequential, so in a
// well-formed history each process's reads already appear in invocation
// order: one stable counting pass by process gives the sorted order in
// O(n). A history in which some process's InvSeq does not increase (hand-
// built histories can do that), or whose process ids span more than the
// read count, takes the sort instead; both give the same permutation
// whenever the counting pass is used.
func readsByProcessOrder(h *history.History) []int32 {
	reads := h.Reads()
	order := make([]int32, len(reads))
	if len(reads) == 0 {
		return order
	}
	lo, hi := reads[0].Op.Proc, reads[0].Op.Proc
	for i := range reads {
		lo, hi = min(lo, reads[i].Op.Proc), max(hi, reads[i].Op.Proc)
	}
	if uint64(hi)-uint64(lo) < uint64(len(reads)) && countByProc(reads, lo, hi, order) {
		return order
	}
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := reads[order[i]].Op, reads[order[j]].Op
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.InvSeq < b.InvSeq
	})
	return order
}

// countByProc fills order with the read indexes bucketed stably by
// process (ids in [lo, hi]) and reports whether each process's InvSeq
// strictly increases along its bucket, i.e. whether order is the
// (Proc, InvSeq) sort.
func countByProc(reads []history.ReadOp, lo, hi history.ProcID, order []int32) bool {
	next := make([]int32, int(hi-lo)+1)
	for i := range reads {
		next[reads[i].Op.Proc-lo]++
	}
	var at int32
	for p, n := range next {
		next[p] = at
		at += n
	}
	for i := range reads {
		p := reads[i].Op.Proc - lo
		order[next[p]] = int32(i)
		next[p]++
	}
	for k := 1; k < len(order); k++ {
		a, b := reads[order[k-1]].Op, reads[order[k]].Op
		if a.Proc == b.Proc && a.InvSeq >= b.InvSeq {
			return false
		}
	}
	return true
}

// StrongPrefix checks Definition 3.2's Strong prefix: for every pair of
// reads, one returned blockchain is a prefix of the other. The check sorts
// chains by length and verifies each is a prefix of the next longer one:
// prefix order is total on a set iff adjacent elements in length order are
// related, which brings the pairwise O(N²) property to O(N log N) plus one
// prefix test per adjacent pair. When the reads agree on one parent per
// block id (History.ReadsAgreeOnParents) each test compares one position;
// otherwise it compares elements, O(L).
func StrongPrefix(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	reads := h.Reads()
	agree := h.ReadsAgreeOnParents()
	order := make([]int, len(reads))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(reads[order[a]].Chain) < len(reads[order[b]].Chain) })
	checked := 0
	for i := 1; i < len(order); i++ {
		a, b := reads[order[i-1]].Chain, reads[order[i]].Chain
		checked++
		if !hasPrefix(agree, b, a) {
			sink.addf("neither of %s and %s prefixes the other", a, b)
		}
	}
	return sink.verdict("StrongPrefix", checked)
}

// hasPrefix reports p ⊑ c. When agree says the history's reads agree on
// one parent per block id (History.ReadsAgreeOnParents), p's last element
// decides it in O(1); otherwise it is Chain.HasPrefix.
func hasPrefix(agree bool, c, p history.Chain) bool {
	if !agree {
		return c.HasPrefix(p)
	}
	return len(p) == 0 || len(p) <= len(c) && c[len(p)-1] == p[len(p)-1]
}

// commonPrefix returns the maximal common prefix of a and b, sliced from
// a. When agree says the history's reads agree on one parent per block id,
// the positions where two chains agree form a prefix, so a binary search
// finds its end in O(log L); otherwise it is Chain.CommonPrefix.
func commonPrefix(agree bool, a, b history.Chain) history.Chain {
	if !agree {
		return a.CommonPrefix(b)
	}
	return a[:sort.Search(min(len(a), len(b)), func(i int) bool { return a[i] != b[i] })]
}

// EverGrowingTree checks Definition 3.2's Ever growing tree under the
// finitization documented in the package comment: a read rᵢ with score s
// may be followed by at most W-1 reads before every later read whose
// invocation the response of rᵢ program-order-precedes returns a score
// strictly greater than s.
//
// The paper quantifies the property over E(a∗, r∗) — histories with
// infinitely many appends. A finite recorded prefix inevitably ends with a
// plateau: reads after the final successful append legitimately stop
// growing, so those reads, and only those, are exempt. Every read that
// responds before the last successful append is invoked is constrained,
// however few appends follow it: a process that stops receiving while
// the others still append is a violation, not a plateau. Updates are not
// growth — a replica that misses a block records no more of them, so
// counting them would exempt more reads the worse liveness fails.
func EverGrowingTree(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	score := opts.score()
	reads := h.Reads() // response order
	w := opts.window(len(reads))
	scores := make([]int, len(reads))
	for i, r := range reads {
		scores[i] = score(r.Chain)
	}
	lastGrowth := int64(math.MinInt64)
	for _, a := range h.SuccessfulAppends() {
		lastGrowth = max(lastGrowth, a.Op.InvTime)
	}
	// sufMin[j] = min(scores[j..n-1]): a read whose score is below every
	// score past its grace window cannot be matched, so its scan is
	// skipped. Passing histories then cost O(N) instead of O(N²).
	sufMin := make([]int, len(reads)+1)
	sufMin[len(reads)] = int(^uint(0) >> 1)
	for j := len(reads) - 1; j >= 0; j-- {
		sufMin[j] = min(scores[j], sufMin[j+1])
	}
	checked := 0
	for i := range reads {
		if reads[i].Op.RspTime >= lastGrowth {
			continue // plateau after the last append: exempt
		}
		checked++
		if i+w >= len(reads) || sufMin[i+w] > scores[i] {
			continue
		}
		for j := i + w; j < len(reads); j++ {
			if scores[j] > scores[i] {
				continue
			}
			if !history.RespondedBefore(*reads[i].Op, *reads[j].Op) {
				continue
			}
			sink.addf("read#%d by p%d score %d still matched by read#%d by p%d score %d after grace window %d",
				i, reads[i].Op.Proc, scores[i], j, reads[j].Op.Proc, scores[j], w)
			break
		}
	}
	return sink.verdict("EverGrowingTree", checked)
}

// EventualPrefix checks Definition 3.3's Eventual prefix under the
// finitization documented in the package comment: for a read rᵢ with score
// s, every pair of reads responding at least W positions after rᵢ must
// share a maximal common prefix of score at least s.
//
// The pairwise quantification collapses to a suffix computation: prefix
// score is an ultrametric (mcps(a,c) ≥ min(mcps(a,b), mcps(b,c))), so the
// minimum pairwise mcps over a set of chains equals the score of the
// common prefix of the whole set, computable right-to-left in O(N log L)
// when the reads agree on one parent per block id
// (History.ReadsAgreeOnParents) and O(N·L) otherwise. A violating pair is
// searched for only while the report still records counterexamples.
func EventualPrefix(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	score := opts.score()
	reads := h.Reads()
	agree := h.ReadsAgreeOnParents()
	w := opts.window(len(reads))
	n := len(reads)
	// suffixCP[j] = common prefix of chains[j..n-1].
	suffixCPScore := make([]int, n+1)
	var cp history.Chain
	for j := n - 1; j >= 0; j-- {
		if j == n-1 {
			cp = reads[j].Chain
		} else {
			cp = commonPrefix(agree, cp, reads[j].Chain)
		}
		suffixCPScore[j] = score(cp)
	}
	suffixCPScore[n] = int(^uint(0) >> 1) // empty suffix: vacuously ∞
	checked := 0
	for i := range reads {
		checked++
		s := score(reads[i].Chain)
		j := i + w
		if j >= n {
			continue // no mature pairs after rᵢ: vacuously satisfied
		}
		if suffixCPScore[j] < s {
			// Locate a concrete violating pair for the report.
			hi, ki := 0, 0
			if sink.recording() {
				hi, ki = findDivergentPair(reads[j:], agree, score, s)
			}
			sink.addf("read#%d score %d: reads #%d and #%d past window %d share prefix score %d < %d",
				i, s, j+hi, j+ki, w, suffixCPScore[j], s)
		}
	}
	return sink.verdict("EventualPrefix", checked)
}

// findDivergentPair returns indices (relative to reads) of a pair whose
// mcps is below s; it exists whenever the suffix common-prefix score is
// below s.
func findDivergentPair(reads []history.ReadOp, agree bool, score blocktree.Score, s int) (int, int) {
	for i := 1; i < len(reads); i++ {
		if score(commonPrefix(agree, reads[0].Chain, reads[i].Chain)) < s {
			return 0, i
		}
	}
	// The first chain agrees with everyone: divergence is among the
	// rest; recurse linearly.
	if len(reads) > 1 {
		a, b := findDivergentPair(reads[1:], agree, score, s)
		return a + 1, b + 1
	}
	return 0, 0
}

// KForkCoherence checks Definition 3.9: at most k append() operations
// return ⊤ for the same token target (the block the token was granted on,
// recorded as the Parent of a successful append response). Replicated
// histories additionally count distinct child blocks per predecessor among
// update events. Θ_P corresponds to k = Unbounded (pass k ≤ 0 to skip the
// bound and always succeed).
func KForkCoherence(h *history.History, k int, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	if k <= 0 {
		return sink.verdict("KForkCoherence(∞)", 0)
	}
	children := map[history.BlockRef]map[history.BlockRef]bool{}
	add := func(parent, child history.BlockRef) {
		if parent == "" || child == "" {
			return
		}
		m, ok := children[parent]
		if !ok {
			m = map[history.BlockRef]bool{}
			children[parent] = m
		}
		m[child] = true
	}
	for _, a := range h.SuccessfulAppends() {
		add(a.Op.Result().Parent, a.Block)
	}
	updates := h.OpsOfKind(history.KindUpdate)
	for i := range updates {
		add(updates[i].Label.Parent, updates[i].Label.Block)
	}
	checked := 0
	for parent, kids := range children {
		checked++
		if len(kids) > k {
			sink.addf("block %s has %d successful extensions, bound k=%d", string(parent), len(kids), k)
		}
	}
	return sink.verdict("KForkCoherence", checked)
}
