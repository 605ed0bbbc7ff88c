package blocktree

import (
	"fmt"

	"blockadt/internal/adt"
	"blockadt/internal/history"
)

// This file gives the sequential specification of the BT-ADT exactly as
// Definition 3.1 states it, as an instance of the generic transducer in
// internal/adt. The abstract state is (bt, f, P); the input alphabet is
// {append(b), read()}; the output alphabet is BC ∪ {true, false}.

// Input is a symbol of the BT-ADT input alphabet A.
type Input struct {
	// Append is true for append(Block) and false for read().
	Append bool
	// Block is the argument of append.
	Block Block
}

// AppendOp returns the input symbol append(b).
func AppendOp(b Block) Input { return Input{Append: true, Block: b} }

// ReadOp returns the input symbol read().
func ReadOp() Input { return Input{} }

// String renders the symbol with the paper's syntax.
func (in Input) String() string {
	if in.Append {
		return fmt.Sprintf("append(%s)", string(in.Block.ID))
	}
	return "read()"
}

// Output is a symbol of the BT-ADT output alphabet B = BC ∪ {true,false}.
type Output struct {
	// Chain is the blockchain returned by read().
	Chain history.Chain
	// OK is the boolean returned by append().
	OK bool
	// IsChain distinguishes the BC case from the boolean case.
	IsChain bool
}

// String renders the output symbol.
func (o Output) String() string {
	if o.IsChain {
		return o.Chain.String()
	}
	return fmt.Sprintf("%v", o.OK)
}

// Equal compares output symbols.
func (o Output) Equal(other Output) bool {
	if o.IsChain != other.IsChain {
		return false
	}
	if !o.IsChain {
		return o.OK == other.OK
	}
	if len(o.Chain) != len(other.Chain) {
		return false
	}
	for i := range o.Chain {
		if o.Chain[i] != other.Chain[i] {
			return false
		}
	}
	return true
}

// State is the abstract state (bt, f, P) of Definition 3.1. The selection
// function and predicate are parameters encoded in the state and never
// change over the computation.
type State struct {
	Tree *Tree
	F    Selector
	P    Predicate
}

// ADT constructs the BT-ADT transducer ⟨A, B, Z, ξ0, τ, δ⟩ with the given
// parameters f and P (Definition 3.1):
//
//	τ((bt,f,P), append(b)) = ({b0}⌢f(bt)⌢{b}, f, P) if b ∈ B′, else (bt,f,P)
//	τ((bt,f,P), read())    = (bt, f, P)
//	δ((bt,f,P), append(b)) = true if b ∈ B′, else false
//	δ((bt,f,P), read())    = {b0}⌢f(bt)   (= b0 on the initial state)
//
// Note append chains the new block to the tip of the currently selected
// chain {b0}⌢f(bt): the transition function, not the caller, decides the
// predecessor.
func ADT(f Selector, p Predicate) *adt.ADT[State, Input, Output] {
	return &adt.ADT[State, Input, Output]{
		Name:    "BT-ADT",
		Initial: State{Tree: New(), F: f, P: p},
		Tau: func(s State, in Input) State {
			if !in.Append || !s.P(in.Block) {
				return s
			}
			next := s.Tree.Clone()
			b := in.Block
			b.Parent = s.F.Select(next).Tip().ID
			if err := next.Insert(b); err != nil {
				// Duplicate ids leave the state unchanged, matching
				// the "otherwise" branch of τ.
				return s
			}
			return State{Tree: next, F: s.F, P: s.P}
		},
		Delta: func(s State, in Input) Output {
			if in.Append {
				return Output{OK: s.P(in.Block) && !s.Tree.Has(in.Block.ID)}
			}
			return Output{Chain: s.F.Select(s.Tree).IDs(), IsChain: true}
		},
	}
}

// SeqBlockTree is a mutable sequential BT-ADT object, the imperative
// counterpart of ADT used by single-process code and as each replica's local
// copy bt_i in the message-passing model (Section 4.2). It is not safe for
// concurrent use; the concurrent object lives in internal/core.
//
// A SeqBlockTree owns its tree: Update, ReadIDs and Tip reach the tree's
// slab without its lock for the four built-in selectors, so no other
// goroutine may use the tree (Tree, NewSeqFromTree's argument) while the
// SeqBlockTree is in use. The Tree's exported methods still lock, and
// calling them from the owning goroutine is safe.
type SeqBlockTree struct {
	tree *Tree
	f    Selector
	p    Predicate
	// ids is the append-only id buffer ReadIDs returns views of; its
	// contents are the chain the previous ReadIDs returned. chainBuf,
	// when set (SetChainBuf), hands out the fresh buffers it starts.
	ids      history.Chain
	chainBuf func(n int) history.Chain
}

// NewSeq returns a sequential BT-ADT with parameters f and P.
func NewSeq(f Selector, p Predicate) *SeqBlockTree {
	return &SeqBlockTree{tree: New(), f: f, p: p}
}

// NewSeqCap is NewSeq with a capacity hint: the underlying tree is
// pre-sized for about n blocks.
func NewSeqCap(f Selector, p Predicate, n int) *SeqBlockTree {
	return &SeqBlockTree{tree: NewCap(n), f: f, p: p}
}

// NewSeqFromTree wraps an existing tree as a sequential BT-ADT with
// selection function f and the trivial predicate — used by replay-based
// checkers that need to branch from intermediate states.
func NewSeqFromTree(t *Tree, f Selector) *SeqBlockTree {
	return &SeqBlockTree{tree: t, f: f, p: AcceptAll}
}

// SetChainBuf makes ReadIDs take each fresh id buffer from buf, which
// returns an empty chain with room for n ids (history.Recorder.ChainBuf,
// so read chains live in the arena of the history they are recorded in).
// Without it ReadIDs allocates them.
func (s *SeqBlockTree) SetChainBuf(buf func(n int) history.Chain) { s.chainBuf = buf }

// Tip returns the tip block of the currently selected chain without
// recording a read or materializing the chain — the protocol-internal
// selection miners run on every granted token.
func (s *SeqBlockTree) Tip() Block {
	if tip, ok := ownedTip(s.f, s.tree); ok {
		return s.tree.nodes[tip].block
	}
	return SelectTip(s.f, s.tree)
}

// Append implements the append(b) operation of Definition 3.1: if P(b)
// holds, b is chained to the tip of the selected chain and true is
// returned; otherwise the state is unchanged and false is returned.
func (s *SeqBlockTree) Append(b Block) bool {
	if !s.p(b) || s.tree.Has(b.ID) {
		return false
	}
	b.Parent = s.f.Select(s.tree).Tip().ID
	return s.tree.Insert(b) == nil
}

// Update implements the update_i(bg, b) operation of Section 4.2: it
// inserts *b with the explicit predecessor bg (as received from the
// network) rather than the locally selected tip, in one call on the tree.
// It returns nil when b was inserted, the bare ErrUnknownParent when bg is
// not in the tree yet (a replica buffers the block until bg arrives),
// ErrDuplicate when b is already present, and ErrRejected when P(b) fails.
// *b is only read, so every replica a message reaches can be handed the
// same block: the tree keeps its own copy, with Parent set to bg.
func (s *SeqBlockTree) Update(parent BlockID, b *Block) error {
	if !s.p(*b) {
		return ErrRejected
	}
	return s.tree.attach(parent, b)
}

// Read implements read(): it returns {b0}⌢f(bt).
func (s *SeqBlockTree) Read() Chain { return s.f.Select(s.tree) }

// ReadIDs is read() returning only the block ids of {b0}⌢f(bt) — the view
// a read response is recorded with. Callers that drive reads for the
// history and discard the chain use it to skip the []Block materialization.
//
// The result is a capped view ids[:n:n] of an id buffer the SeqBlockTree
// writes. A read that repeats or extends the previous one appends only
// the new ids, so it costs the blocks added since the last read, not the
// chain's height; consecutive reads then share their prefix in memory. A
// reorg, a read of an ancestor tip, or a chain that outgrows the buffer
// starts a fresh buffer of n + max(64, n/4) ids from a copy of the kept
// prefix. The buffer is never written below its length, so every
// returned chain is immutable, and since cap == len an append by the
// caller reallocates instead of writing into the buffer.
//
// With SetChainBuf the buffers are carved from a recorder's chain arena:
// the returned chains are then views of the arena of the history they are
// recorded in, and die with that history's Release.
func (s *SeqBlockTree) ReadIDs() history.Chain {
	s.ids = s.tree.appendSelectedIDs(s.ids, s.f, s.chainBuf)
	return s.ids[:len(s.ids):len(s.ids)]
}

// Tree exposes the underlying tree for inspection.
func (s *SeqBlockTree) Tree() *Tree { return s.tree }

// Selector returns the parameter f.
func (s *SeqBlockTree) Selector() Selector { return s.f }
