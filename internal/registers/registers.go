// Package registers implements the shared-memory substrate of Section 4.1
// of "Blockchain Abstract Data Type" (Anceaume et al.): linearizable
// single-value registers, a Compare&Swap object, and an
// obstruction-free atomic snapshot (Aspnes & Herlihy style), plus the
// paper's reductions between these objects and the oracle's consumeToken:
//
//   - Figure 9/10: Compare&Swap from consumeToken for Θ_F,k=1 (hence
//     consumeToken has consensus number ∞, Theorem 4.1/4.2);
//   - Figure 12: consumeToken from Atomic Snapshot for Θ_P (hence Θ_P has
//     consensus number 1, Theorem 4.3).
package registers

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Register is a linearizable multi-reader multi-writer atomic register
// holding a string value (block/object ids in this reproduction). The zero
// value is an empty register holding "".
type Register struct {
	v atomic.Value // always string
}

// Read returns the current value.
func (r *Register) Read() string {
	if v := r.v.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Write stores the value.
func (r *Register) Write(s string) { r.v.Store(s) }

// CAS is a linearizable Compare&Swap object over string values, the
// universal object with consensus number ∞ (Herlihy). Empty string is the
// conventional "unset" value {}.
type CAS struct {
	mu sync.Mutex
	v  string
}

// CompareAndSwap implements the paper's Figure 9 compare&swap(): if the
// current value equals old, new is stored; in every case the value held at
// the beginning of the operation is returned.
func (c *CAS) CompareAndSwap(old, new string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.v
	if prev == old {
		c.v = new
	}
	return prev
}

// Read returns the current value (a plain register read).
func (c *CAS) Read() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Snapshot is an atomic snapshot object over n string components
// offering update(i, v) and scan() (Aspnes & Herlihy, cited as [7]). The
// implementation uses per-component sequence numbers and the classic
// double collect without helping: Update is wait-free, but Scan is only
// obstruction-free — it retries until two successive collects agree, so
// it returns once updates pause and can starve under endless concurrent
// updates. With finitely many updates (every workload here) it
// terminates. Theorem 4.3 assumes a wait-free snapshot; the helping
// (embedded-scan) construction that would make Scan wait-free is open
// work (ROADMAP direction C).
type Snapshot struct {
	n     int
	cells []snapCell
}

type snapCell struct {
	mu  sync.Mutex
	seq uint64
	val string
}

// NewSnapshot returns a snapshot object with n components, all "".
func NewSnapshot(n int) *Snapshot {
	return &Snapshot{n: n, cells: make([]snapCell, n)}
}

// N returns the number of components.
func (s *Snapshot) N() int { return s.n }

// Update atomically sets component i to v.
func (s *Snapshot) Update(i int, v string) {
	c := &s.cells[i]
	c.mu.Lock()
	c.seq++
	c.val = v
	c.mu.Unlock()
}

func (s *Snapshot) collect() ([]string, []uint64) {
	vals := make([]string, s.n)
	seqs := make([]uint64, s.n)
	for i := range s.cells {
		c := &s.cells[i]
		c.mu.Lock()
		vals[i] = c.val
		seqs[i] = c.seq
		c.mu.Unlock()
	}
	return vals, seqs
}

// Scan returns an atomic view of all components: a vector of values that
// all coexisted at some instant during the scan. It collects until two
// successive collects carry identical sequence numbers; no update landed
// between them, so the second collect is such a vector.
func (s *Snapshot) Scan() []string {
	_, seqs := s.collect()
	for {
		vals, again := s.collect()
		if slices.Equal(seqs, again) {
			return vals
		}
		seqs = again
	}
}
