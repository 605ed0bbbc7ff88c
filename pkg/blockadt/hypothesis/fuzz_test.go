package hypothesis

import (
	"bytes"
	"testing"
)

// FuzzDecodeOutcome feeds arbitrary bytes to DecodeOutcome, the decoder
// `btadt diff` runs over the hypothesis verdict files it is handed. It
// must never panic, and an outcome it accepts must encode to a fixed
// point: decoding EncodeJSON's output and encoding again yields the same
// bytes. The seed corpus under testdata/fuzz holds the three committed
// hypotheses/*/verdict.json, a wrong discriminator, truncated JSON, null
// and a non-object.
func FuzzDecodeOutcome(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		o, err := DecodeOutcome(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := o.EncodeJSON(&once); err != nil {
			t.Fatalf("EncodeJSON of an accepted outcome: %v", err)
		}
		again, err := DecodeOutcome(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("DecodeOutcome rejected its own encoding: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := again.EncodeJSON(&twice); err != nil {
			t.Fatalf("EncodeJSON of the re-decoded outcome: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n--- once ---\n%s--- twice ---\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
