package blockadt

import "blockadt/internal/consistency"

// CheckSC checks the BT Strong Consistency criteria over a history.
func CheckSC(h *History, opts CheckOptions) ConsistencyReport {
	return consistency.CheckSC(h, opts)
}

// CheckEC checks the BT Eventual Consistency criteria over a history.
func CheckEC(h *History, opts CheckOptions) ConsistencyReport {
	return consistency.CheckEC(h, opts)
}

// ClassifyHistory runs both criterion families and assigns the strongest
// satisfied consistency level.
func ClassifyHistory(h *History, opts CheckOptions) Classification {
	return consistency.Classify(h, opts)
}

// UpdateAgreement checks the R3 Update Agreement property (Definition
// 4.3) — the communication guarantee the necessity results revolve around.
func UpdateAgreement(h *History, opts CheckOptions) Verdict {
	return consistency.UpdateAgreement(h, opts)
}

// LRC checks the Light Reliable Communication broadcast properties
// (Definition 4.4).
func LRC(h *History, opts CheckOptions) Verdict {
	return consistency.LRC(h, opts)
}

// EventualPrefix checks the Eventual Prefix criterion (Definition 3.3).
func EventualPrefix(h *History, opts CheckOptions) Verdict {
	return consistency.EventualPrefix(h, opts)
}

// StrongPrefix checks the Strong Prefix criterion (Definition 3.4).
func StrongPrefix(h *History, opts CheckOptions) Verdict {
	return consistency.StrongPrefix(h, opts)
}
