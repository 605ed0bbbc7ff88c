// Package oracle implements the token-oracle abstract data types Θ_P
// (prodigal) and Θ_F,k (frugal) of Section 3.2 of "Blockchain Abstract Data
// Type" (Anceaume et al.).
//
// The oracle abstracts the implementation-specific block-validation process
// (proof-of-work, committees, …): a process obtains the right to chain a new
// block b_ℓ to b_h by gaining a token tkn_h via getToken, and the block
// becomes appended when the token is consumed via consumeToken. The oracle
// is the only generator of valid blocks; it also owns the synchronization
// power that bounds forks: consumeToken inserts the object into the set K[h]
// only while |K[h]| < k. Θ_P is Θ_F with k = ∞ (Definition 3.6).
//
// Token grant probability follows the paper's merit tapes: for each merit αᵢ
// the oracle state embeds an infinite tape of pseudorandom {tkn, ⊥} cells;
// getToken pops the head cell of the invoker's tape and grants a token iff
// the cell contains tkn. Tapes are realized by the stateless PRF in
// internal/prng, so the abstract state (Figure 5) never needs to be
// materialized.
package oracle

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"blockadt/internal/history"
	"blockadt/internal/prng"
)

// ObjectID names an object (in the refinement: a block) tokens relate to.
type ObjectID = history.BlockRef

// Unbounded is the k value of the prodigal oracle Θ_P: no bound on the
// number of tokens consumed per object.
const Unbounded = 0

// Token is the right, granted by getToken, to chain a new object to the
// object named Object. Each token can be consumed at most once.
type Token struct {
	// ID is unique per granted token; 0 is never a valid id.
	ID uint64
	// Object is the object h the token tkn_h grants access to.
	Object ObjectID
	// Merit is the merit index αᵢ of the invoking process.
	Merit int
}

// Valid reports whether the token was actually granted.
func (t Token) Valid() bool { return t.ID != 0 }

// String renders the token as tkn<h>#<id>.
func (t Token) String() string {
	return fmt.Sprintf("tkn[%s]#%d", string(t.Object), t.ID)
}

// Errors returned by ConsumeToken.
var (
	// ErrTokenReused reports a second consumption of the same token; the
	// paper's tokens are consumed at most once.
	ErrTokenReused = errors.New("oracle: token already consumed")
	// ErrInvalidToken reports consumption of a token that was never
	// granted (tkn_h ∉ T).
	ErrInvalidToken = errors.New("oracle: token was not granted by this oracle")
)

// Config parameterizes an oracle.
type Config struct {
	// K bounds tokens consumed per object; Unbounded (0) gives Θ_P, any
	// positive value gives Θ_F,k.
	K int
	// Merits holds pα_i, the per-merit token probability of each tape.
	// The merit parameter abstracts e.g. hashing power (footnote 2).
	Merits []float64
	// Seed identifies the pseudorandom tape family (footnote 3).
	Seed uint64
}

// Oracle is a Θ-ADT instance. It is safe for concurrent use; getToken and
// consumeToken are individually atomic, matching the oracle-side
// synchronization the paper assumes (Section 4.4 observation).
type Oracle struct {
	mu sync.Mutex
	k  int
	// merits[i] = pα_i.
	merits []float64
	seed   uint64
	// tapePos[i] is the number of cells popped from tape αᵢ.
	tapePos []uint64
	// consumed[h] is K[h]: the objects whose token on h was consumed.
	// A set is only ever appended to, so a capped view of it (what
	// ConsumeToken returns) never changes.
	consumed map[ObjectID][]ObjectID
	// granted[id-1] is the grant of token id: token ids are dense from 1,
	// so len(granted) is the number of grants.
	granted []grant
	// stats
	getCalls     uint64
	consumeCalls uint64
	consumeOK    uint64
}

type grant struct {
	object   ObjectID
	proposed ObjectID
	consumed bool
}

// New returns an oracle with the given configuration. A nil or empty merit
// list defaults to a single merit with probability 1 (every getToken
// succeeds), the convenient setting for shared-memory experiments.
func New(cfg Config) *Oracle {
	merits := cfg.Merits
	if len(merits) == 0 {
		merits = []float64{1}
	}
	return &Oracle{
		k:        cfg.K,
		merits:   append([]float64(nil), merits...),
		seed:     cfg.Seed,
		tapePos:  make([]uint64, len(merits)),
		consumed: map[ObjectID][]ObjectID{},
	}
}

// NewProdigal returns Θ_P with the given merits.
func NewProdigal(seed uint64, merits ...float64) *Oracle {
	return New(Config{K: Unbounded, Merits: merits, Seed: seed})
}

// NewFrugal returns Θ_F,k with the given merits.
func NewFrugal(k int, seed uint64, merits ...float64) *Oracle {
	if k < 1 {
		panic("oracle: frugal oracle requires k >= 1")
	}
	return New(Config{K: k, Merits: merits, Seed: seed})
}

// K returns the fork bound (Unbounded for Θ_P).
func (o *Oracle) K() int { return o.k }

// IsProdigal reports whether the oracle is Θ_P.
func (o *Oracle) IsProdigal() bool { return o.k == Unbounded }

// Name returns "Θ_P" or "Θ_F,k=<k>".
func (o *Oracle) Name() string {
	if o.IsProdigal() {
		return "Θ_P"
	}
	return fmt.Sprintf("Θ_F,k=%d", o.k)
}

// Merits returns the number of merit tapes.
func (o *Oracle) Merits() int { return len(o.merits) }

// GetToken implements getToken(obj_h, obj_ℓ) for the process with the given
// merit index: it pops the head cell of tape α_merit and, when the cell
// contains tkn, grants a token for object h, thereby validating the
// proposed object ℓ (the returned token makes obj_ℓ^tkn_h ∈ O′). The second
// return value is false when the cell contained ⊥.
func (o *Oracle) GetToken(merit int, h, l ObjectID) (Token, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if merit < 0 || merit >= len(o.merits) {
		return Token{}, false
	}
	o.getCalls++
	pos := o.tapePos[merit]
	o.tapePos[merit]++
	cell := prng.Cell(o.seed, merit, pos)
	if !prng.Bernoulli(cell, o.merits[merit]) {
		return Token{}, false
	}
	o.granted = append(o.granted, grant{object: h, proposed: l})
	return Token{ID: uint64(len(o.granted)), Object: h, Merit: merit}, true
}

// PopBottom pops the head cell of tape α_merit only when it contains ⊥,
// and reports whether it did. The popped cell counts as a getToken call
// that returned ⊥, so calling GetToken exactly when PopBottom returns false
// grants the same tokens and leaves the same tapes and Stats as calling
// GetToken every time. A cell's content depends only on (seed, merit,
// position), never on the objects getToken names, so a miner can draw
// before it selects the object to extend and skip the selection on the
// far more common ⊥ cell. An unknown merit has no tape: PopBottom returns
// false and GetToken then fails.
func (o *Oracle) PopBottom(merit int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if merit < 0 || merit >= len(o.merits) {
		return false
	}
	pos := o.tapePos[merit]
	if prng.Bernoulli(prng.Cell(o.seed, merit, pos), o.merits[merit]) {
		return false
	}
	o.tapePos[merit]++
	o.getCalls++
	return true
}

// ConsumeToken implements consumeToken(obj_ℓ^tkn_h): it inserts the
// validated object into K[h] as long as |K[h]| < k, and in every case
// returns the contents of K[h] (the paper's get(K, h)). The boolean result
// reports whether this call's object was inserted. Consuming a token twice
// or consuming a token the oracle never granted returns an error.
//
// The returned set is a read-only view of K[h], capped at its length: it
// does not change when later consumptions grow K[h], and the caller must
// not write its elements (ConsumedSet returns a copy).
func (o *Oracle) ConsumeToken(tok Token) ([]ObjectID, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.consumeCalls++
	if tok.ID == 0 || tok.ID > uint64(len(o.granted)) || o.granted[tok.ID-1].object != tok.Object {
		return o.set(tok.Object), false, ErrInvalidToken
	}
	g := &o.granted[tok.ID-1]
	if g.consumed {
		return o.set(tok.Object), false, ErrTokenReused
	}
	g.consumed = true
	set := o.consumed[tok.Object]
	if o.k != Unbounded && len(set) >= o.k {
		return o.set(tok.Object), false, nil
	}
	o.consumed[tok.Object] = append(set, g.proposed)
	o.consumeOK++
	return o.set(tok.Object), true, nil
}

// set returns K[h] capped at its length: a view later appends to K[h]
// cannot change.
func (o *Oracle) set(h ObjectID) []ObjectID {
	set := o.consumed[h]
	return set[:len(set):len(set)]
}

func (o *Oracle) setCopy(h ObjectID) []ObjectID {
	set := o.consumed[h]
	out := make([]ObjectID, len(set))
	copy(out, set)
	return out
}

// ConsumedSet returns K[h].
func (o *Oracle) ConsumedSet(h ObjectID) []ObjectID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.setCopy(h)
}

// Objects returns the object ids with a non-empty consumed set, sorted.
func (o *Oracle) Objects() []ObjectID {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]ObjectID, 0, len(o.consumed))
	for h := range o.consumed {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats reports the oracle's operation counters.
type Stats struct {
	GetCalls     uint64
	Grants       uint64
	ConsumeCalls uint64
	ConsumeOK    uint64
}

// Stats returns a snapshot of the counters.
func (o *Oracle) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Stats{GetCalls: o.getCalls, Grants: uint64(len(o.granted)), ConsumeCalls: o.consumeCalls, ConsumeOK: o.consumeOK}
}

// KForkCoherent reports whether every consumed set respects the bound k
// (Definition 3.9 / Theorem 3.2): at most k objects consumed per token
// target. It always holds for Θ_P.
func (o *Oracle) KForkCoherent() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.k == Unbounded {
		return true
	}
	for _, set := range o.consumed {
		if len(set) > o.k {
			return false
		}
	}
	return true
}
