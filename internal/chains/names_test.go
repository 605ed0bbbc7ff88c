package chains

import (
	"fmt"
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
)

// TestNamesMatchFmt: block and fruit ids are built without fmt, and must
// be byte-identical to the fmt formats they replace, past every padding
// width and for negative values too.
func TestNamesMatchFmt(t *testing.T) {
	values := []int{0, 1, 7, 9, 10, 42, 99, 100, 999, 1000, 9999, 10000, 123456, -1, -7, -42, -999, -1000}
	for _, a := range values {
		for _, b := range values {
			proc := history.ProcID(b)
			for _, tag := range []byte{'p', 'z'} {
				want := blocktree.BlockID(fmt.Sprintf("b%04d-%c%02d-%04d", a, tag, proc, b))
				if got := blockName(a, tag, proc, b); got != want {
					t.Fatalf("blockName(%d, %c, %d, %d) = %q, want %q", a, tag, proc, b, got, want)
				}
				if got, want := fruitName(tag, proc, a), fmt.Sprintf("f-%c%02d-%04d", tag, proc, a); got != want {
					t.Fatalf("fruitName(%c, %d, %d) = %q, want %q", tag, proc, a, got, want)
				}
			}
		}
	}
}
