package chains

import (
	"blockadt/internal/blocktree"
)

// This file keeps the support set of the generic PoW driver — the
// executable counterpart of the open issues the paper lists at the end
// of Section 4.2 ("TBC"): the solvability of Eventual Prefix under
// asynchrony and under block intervals shorter than the message-delay
// bound. The paper states the conjectures:
//
//	(ii)  Eventual Prefix is impossible in an asynchronous system;
//	(iii) Eventual Prefix is impossible if the interval between the
//	      generation of two successive blocks is less than the upper
//	      bound on the message delay.
//
// Executing a PoW system under AsyncLinks exhibits finite-run witnesses
// for both: with mining much faster than delivery, replicas build on
// stale tips and the recorded histories show divergence that outlives
// any grace window; with mining much slower than the (bounded) delay,
// the same protocol converges. The link plans themselves live in
// execute.go; Composes refuses one composed with a system outside this
// support set, so Execute returns an error instead of panicking.

// powSelectors maps each PoW system — the permissionless protocols whose
// mining loop is link-model agnostic — to its selection function. This is
// the support set of every non-synchronous link regime and non-complete
// topology: the committee systems assume synchronous rounds, so only the
// PoW systems run under async, psync, lossy, partition and jitter links.
// (GHOST's pre-GST oscillation, which used to exclude Ethereum from
// psync, is gone now that WeaklySynchronous honors the DLS "delivered by
// GST+δ" bound: no stale pre-GST straggler can arrive arbitrarily late
// and flip the subtree weights after stabilization.)
var powSelectors = map[string]blocktree.Selector{
	"Bitcoin":  blocktree.HeaviestChain{},
	"Ethereum": blocktree.GHOST{},
}
