package consistency

import (
	"sort"

	"blockadt/internal/history"
)

// msgKey identifies a propagated update (bg, b_origin) as in Definition 4.3.
type msgKey struct {
	parent history.BlockRef
	block  history.BlockRef
}

// procUniverse returns the correct-process universe: Options.Procs if set,
// otherwise every process that produced an event (each event belongs to
// an op of its process).
func procUniverse(h *history.History, opts Options) []history.ProcID {
	if opts.Procs != nil {
		return opts.Procs
	}
	seen := map[history.ProcID]bool{}
	ops := h.Ops()
	for i := range ops {
		seen[ops[i].Proc] = true
	}
	out := make([]history.ProcID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UpdateAgreement checks the three Update Agreement properties of
// Definition 4.3 on a replicated-object history:
//
//	R1. every update_i(bg, b_i) of a locally generated block has a
//	    matching send_i(bg, b_i);
//	R2. every update_i(bg, b_j) of a remote block (j ≠ i) is preceded at
//	    i by a receive_i(bg, b_j);
//	R3. for every update_i(bg, b_j), every correct process k has a
//	    receive_k(bg, b_j) somewhere in the history.
//
// Theorem 4.6 makes Update Agreement necessary for BT Eventual Consistency;
// the experiments use this checker on both compliant and message-dropping
// runs.
func UpdateAgreement(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	procs := procUniverse(h, opts)

	sends := map[history.ProcID]map[msgKey]int64{}
	receives := map[history.ProcID]map[msgKey]int64{}
	put := func(m map[history.ProcID]map[msgKey]int64, p history.ProcID, k msgKey, t int64) {
		inner, ok := m[p]
		if !ok {
			inner = map[msgKey]int64{}
			m[p] = inner
		}
		if old, ok := inner[k]; !ok || t < old {
			inner[k] = t
		}
	}
	var updates []*history.Op
	ops := h.Ops()
	for i := range ops {
		op := &ops[i]
		k := msgKey{parent: op.Label.Parent, block: op.Label.Block}
		switch op.Label.Kind {
		case history.KindSend:
			put(sends, op.Proc, k, op.InvTime)
		case history.KindReceive:
			put(receives, op.Proc, k, op.InvTime)
		case history.KindUpdate:
			updates = append(updates, op)
		}
	}

	checked := 0
	for _, u := range updates {
		k := msgKey{parent: u.Label.Parent, block: u.Label.Block}
		if u.Label.Origin == u.Proc {
			// R1: locally generated block must be sent.
			checked++
			if _, ok := sends[u.Proc][k]; !ok {
				sink.addf("R1: update_%d(%s,%s) of own block without send", u.Proc, string(k.parent), string(k.block))
			}
		} else {
			// R2: remote block must have been received first.
			checked++
			t, ok := receives[u.Proc][k]
			if !ok {
				sink.addf("R2: update_%d(%s,%s) without receive", u.Proc, string(k.parent), string(k.block))
			} else if t > u.InvTime {
				sink.addf("R2: update_%d(%s,%s) at t=%d precedes its receive at t=%d", u.Proc, string(k.parent), string(k.block), u.InvTime, t)
			}
		}
		// R3: everyone eventually receives the update's block.
		for _, p := range procs {
			checked++
			if _, ok := receives[p][k]; !ok {
				sink.addf("R3: update of (%s,%s) but p%d never receives it", string(k.parent), string(k.block), p)
			}
		}
	}
	return sink.verdict("UpdateAgreement", checked)
}

// LRC checks the Light Reliable Communication properties of Definition 4.4:
//
//	Validity:  every send_i(b, b_i) has a matching receive_i(b, b_i) at
//	           the sender itself;
//	Agreement: every message received by some correct process is received
//	           by every correct process.
//
// Theorem 4.7 makes LRC necessary for BT Eventual Consistency.
func LRC(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	procs := procUniverse(h, opts)
	slot := make(map[history.ProcID]int, len(procs))
	for i, p := range procs {
		slot[p] = i
	}

	// Each message some process received gets a dense index in the order
	// of its first receive and a row of len(procs) flags in received.
	index := map[msgKey]int{}
	var (
		keys     []msgKey
		received []bool
		sends    []int // indices into ops
	)
	ops := h.Ops()
	for i := range ops {
		op := &ops[i]
		switch op.Label.Kind {
		case history.KindSend:
			sends = append(sends, i)
		case history.KindReceive:
			k := msgKey{parent: op.Label.Parent, block: op.Label.Block}
			idx, ok := index[k]
			if !ok {
				idx = len(keys)
				index[k] = idx
				keys = append(keys, k)
				received = append(received, make([]bool, len(procs))...)
			}
			if s, ok := slot[op.Proc]; ok {
				received[idx*len(procs)+s] = true
			}
		}
	}

	checked := 0
	for _, i := range sends {
		op := &ops[i]
		checked++
		s, ok := slot[op.Proc]
		if !ok {
			continue
		}
		idx, ok := index[msgKey{parent: op.Label.Parent, block: op.Label.Block}]
		if !ok || !received[idx*len(procs)+s] {
			sink.addf("Validity: send_%d(%s,%s) never received by sender", op.Proc, string(op.Label.Parent), string(op.Label.Block))
		}
	}
	for idx, k := range keys {
		for _, p := range procs {
			checked++
			if !received[idx*len(procs)+slot[p]] {
				sink.addf("Agreement: (%s,%s) received by some process but not by p%d", string(k.parent), string(k.block), p)
			}
		}
	}
	return sink.verdict("LRC", checked)
}
