package blockadt

import "sync"

// Singleflight coalesces concurrent executions of identical scenarios:
// while one goroutine (the leader) is computing the result for a store
// key, every other goroutine asking for the same key blocks and receives
// the leader's result instead of simulating again. Combined with the run
// store this gives a sweep service its in-flight dedup layer — the store
// dedups across time (a finished scenario is a cache hit forever), the
// flight group dedups across space (n concurrent identical submissions
// simulate each scenario once, not n times).
//
// A Singleflight is safe for concurrent use and is meant to be shared
// across every Run/Stream call that should coalesce — pass the same
// instance through WithSingleflight. The zero value is not usable; call
// NewSingleflight.
type Singleflight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	r    Result
	err  error
}

// NewSingleflight returns an empty flight group.
func NewSingleflight() *Singleflight {
	return &Singleflight{calls: map[string]*flightCall{}}
}

// Do executes fn under key, coalescing concurrent calls: the first
// caller for a key runs fn (leader=true); callers that arrive while it
// runs block and receive the leader's result and error without invoking
// fn (leader=false), so a failed scenario fails every sweep waiting on
// it rather than handing the waiters an empty result. The key is removed
// before the result is published, so a call arriving after completion
// starts a fresh flight — by then the run store already has the result,
// making the recompute a cache hit.
func (g *Singleflight) Do(key string, fn func() (Result, error)) (r Result, leader bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.r, false, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.r, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.r, true, c.err
}

// Inflight reports how many distinct keys are currently being computed —
// the in-flight gauge a serving layer exposes.
func (g *Singleflight) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
