package consistency

import (
	"errors"
	"fmt"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
)

// This file implements the two strongest criteria of the related-work
// comparison ([6], Fernández Anta et al., "Formalizing and implementing
// distributed ledger objects"): linearizability and sequential consistency
// of the ledger object, checked against the paper's own sequential
// specification of the BT-ADT (Definition 3.1: append chains to the tip of
// f(bt), read returns {b0}⌢f(bt)).
//
// The checker is a Wing & Gong-style search over operation orders:
//
//   - Linearizable: a total order extending the real-time precedence
//     (rsp(o) before inv(o') ⇒ o before o') under which replaying the
//     sequential BT-ADT reproduces every recorded response;
//   - SequentiallyConsistent: the same with only per-process order
//     preserved.
//
// The search memoizes on (linearized-set, tree fingerprint) and is
// exponential in the worst case, so it accepts histories up to MaxOps
// operations — it is a verification aid for small witnesses, not a bulk
// checker (the per-criterion checkers above scale; this one certifies).

// MaxLinearizeOps bounds the search.
const MaxLinearizeOps = 24

// ErrTooLarge reports a history beyond the search bound.
var ErrTooLarge = errors.New("consistency: history too large for linearizability search")

type linOp struct {
	op    history.Op
	read  bool
	chain history.Chain // recorded response chain for reads
	ok    bool          // recorded response for appends
	block blocktree.BlockID
}

// Linearizable reports whether the completed append/read operations of h
// are linearizable with respect to the sequential BT-ADT with selection
// function sel.
func Linearizable(h *history.History, sel blocktree.Selector) (bool, error) {
	return searchOrder(h, sel, true)
}

// SequentiallyConsistent reports whether the operations admit a legal
// sequential order preserving only per-process order.
func SequentiallyConsistent(h *history.History, sel blocktree.Selector) (bool, error) {
	return searchOrder(h, sel, false)
}

func collectLinOps(h *history.History) ([]linOp, error) {
	var ops []linOp
	hops := h.Ops()
	for i := range hops {
		op := &hops[i]
		if !op.Complete {
			continue // pending ops may linearize anywhere; we drop them
		}
		switch op.Label.Kind {
		case history.KindRead:
			ops = append(ops, linOp{op: *op, read: true, chain: op.Result().Chain})
		case history.KindAppend:
			ops = append(ops, linOp{op: *op, ok: op.Result().OK, block: op.Label.Block})
		}
	}
	if len(ops) > MaxLinearizeOps {
		return nil, fmt.Errorf("%w: %d ops > %d", ErrTooLarge, len(ops), MaxLinearizeOps)
	}
	return ops, nil
}

// searchOrder explores admissible operation orders.
func searchOrder(h *history.History, sel blocktree.Selector, realTime bool) (bool, error) {
	ops, err := collectLinOps(h)
	if err != nil {
		return false, err
	}
	if len(ops) == 0 {
		return true, nil
	}
	if sel == nil {
		sel = blocktree.LongestChain{}
	}
	s := &linSearch{ops: ops, sel: sel, realTime: realTime, memo: map[string]bool{}}
	return s.run(0, blocktree.NewSeq(sel, blocktree.AcceptAll), ""), nil
}

type linSearch struct {
	ops      []linOp
	sel      blocktree.Selector
	realTime bool
	memo     map[string]bool
}

// run tries to extend the linearization; done is the bitmask of linearized
// ops and fp a fingerprint of the applied append sequence (the tree state
// is a function of the applied appends in order; the fingerprint is the
// concatenation of applied block ids, which determines the tree given the
// deterministic tip rule).
func (s *linSearch) run(done uint32, tree *blocktree.SeqBlockTree, fp string) bool {
	all := uint32(1)<<len(s.ops) - 1
	if done == all {
		return true
	}
	key := fmt.Sprintf("%08x|%s", done, fp)
	if v, seen := s.memo[key]; seen {
		return v
	}
	res := false
	for i := range s.ops {
		if done&(1<<i) != 0 {
			continue
		}
		if !s.eligible(done, i) {
			continue
		}
		if s.ops[i].read {
			got := tree.Read().IDs()
			if chainsEqual(got, s.ops[i].chain) {
				if s.run(done|1<<i, tree, fp) {
					res = true
					break
				}
			}
			continue
		}
		// Append: replay on a copy (SeqBlockTree has no undo).
		next := cloneSeq(tree, s.sel)
		okGot := next.Append(blocktree.Block{ID: s.ops[i].block})
		if okGot != s.ops[i].ok {
			continue
		}
		nfp := fp
		if okGot {
			nfp = fp + "/" + string(s.ops[i].block)
		}
		if s.run(done|1<<i, next, nfp) {
			res = true
			break
		}
	}
	s.memo[key] = res
	return res
}

// eligible reports whether op i may be the next linearization point: no
// other unlinearized op strictly precedes it in the preserved order.
func (s *linSearch) eligible(done uint32, i int) bool {
	for j := range s.ops {
		if j == i || done&(1<<j) != 0 {
			continue
		}
		a, b := s.ops[j].op, s.ops[i].op
		if s.realTime {
			if a.RspTime < b.InvTime {
				return false // j must come first
			}
		}
		if a.Proc == b.Proc && a.InvSeq < b.InvSeq {
			return false // per-process order always preserved
		}
	}
	return true
}

func cloneSeq(t *blocktree.SeqBlockTree, sel blocktree.Selector) *blocktree.SeqBlockTree {
	return blocktree.NewSeqFromTree(t.Tree().Clone(), sel)
}

func chainsEqual(a, b history.Chain) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
