package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"blockadt/pkg/blockadt"
)

// FuzzDecodeMatrix feeds arbitrary request bodies through the submit
// path's validation — readBody, then decodeMatrix — and never runs a
// scenario. It must never panic; a body it rejects gets a 400 or 413
// whose JSON carries an error field, and a body it accepts expands to at
// least one scenario and writes nothing yet. The seed corpus under
// testdata/fuzz holds the CI and Table 1 matrices and malformed bodies,
// among them a 19-byte body asking for 10⁸ seeds.
func FuzzDecodeMatrix(f *testing.F) {
	store, err := blockadt.OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Store: store})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body))
		raw, ok := readBody(w, r, s.cfg.MaxBodyBytes)
		var sw *blockadt.Sweep
		if ok {
			_, sw, ok = s.decodeMatrix(w, raw)
		}
		if ok {
			if sw.Len() < 1 || len(sw.Keys()) != sw.Len() || w.Body.Len() != 0 {
				t.Fatalf("accepted body expanded to %d scenarios, %d keys, and wrote %q", sw.Len(), len(sw.Keys()), w.Body)
			}
			return
		}
		if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("rejection status %d, want 400 or 413", w.Code)
		}
		var rejection struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &rejection); err != nil || rejection.Error == "" {
			t.Fatalf("rejection body %q carries no JSON error field (%v)", w.Body, err)
		}
	})
}
