package blockadt

import (
	"bytes"
	"testing"
)

// FuzzDecodeReport feeds arbitrary bytes to DecodeReport, the decoder
// `btadt diff` runs over report files it is handed. It must never
// panic, and a report it accepts must encode to a fixed point: decoding
// EncodeJSON's output and encoding again yields the same bytes. The
// seed corpus under testdata/fuzz holds an excerpt of the CI sweep
// baseline and malformed variants of it.
func FuzzDecodeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		rep, err := DecodeReport(raw)
		if err != nil {
			return
		}
		once, err := rep.EncodeJSON()
		if err != nil {
			t.Fatalf("EncodeJSON of an accepted report: %v", err)
		}
		again, err := DecodeReport(once)
		if err != nil {
			t.Fatalf("DecodeReport rejected its own encoding: %v\n%s", err, once)
		}
		twice, err := again.EncodeJSON()
		if err != nil {
			t.Fatalf("EncodeJSON of the re-decoded report: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n--- once ---\n%s--- twice ---\n%s", once, twice)
		}
	})
}
