package blockadt

import (
	"blockadt/internal/chains"
	"blockadt/internal/parallel"
)

// Table1Row is one row of the regenerated Table 1.
type Table1Row = chains.Row

// ClassifyTable regenerates Table 1 from the registry: simulate every
// registered system with the given parameters and classify its recorded
// history. Rows come back in registration order (Table 1 order for the
// built-ins); the runs fan out across all CPUs.
func ClassifyTable(p SimParams) []Table1Row {
	return parallel.Map(Systems(), 0, func(_ int, spec SystemSpec) Table1Row {
		return chains.ClassifyOne(specSystem{spec}, p)
	})
}

// ClassifySystem simulates a single registered system and classifies its
// history.
func ClassifySystem(name string, p SimParams) (Table1Row, error) {
	spec, err := LookupSystem(name)
	if err != nil {
		return Table1Row{}, err
	}
	return chains.ClassifyOne(specSystem{spec}, p), nil
}

// FormatTable1 renders the rows as an aligned text table mirroring Table 1
// with the measured column appended.
func FormatTable1(rows []Table1Row) string {
	return chains.FormatTable(rows)
}
