package runstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzStoreObject writes arbitrary bytes as the object at Hash(key) and
// drives every operation that reads objects: Open, Get, and GC keeping
// all and keeping none. Nothing may panic, Get must hit exactly when the
// bytes are an envelope for key with decodable data, and every Get is
// counted as one hit or one miss.
func FuzzStoreObject(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string, obj []byte) {
		dir := t.TempDir()
		hash := Hash(key)
		path := filepath.Join(dir, "objects", hash[:2], hash+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, obj, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 1 || !s.Has(key) {
			t.Fatalf("Open listed %d entries, want the one object", s.Len())
		}

		want, keyOK, decided := predict(key, obj)
		var m map[string]any
		hit, err := s.Get(key, &m)
		if err != nil {
			t.Fatalf("Get returned an error, want a miss: %v", err)
		}
		if decided && hit != want {
			t.Fatalf("Get hit = %v, want %v for %q", hit, want, obj)
		}
		var absent map[string]any
		if hit, _ := s.Get(key+"|absent", &absent); hit {
			t.Fatal("Get hit a key with no object")
		}
		st := s.Stats()
		if st.Hits+st.Misses != 2 {
			t.Fatalf("stats count %d hits + %d misses, want 2 Get calls", st.Hits, st.Misses)
		}
		if hit && st.BytesRead != uint64(len(obj)) {
			t.Fatalf("BytesRead = %d, want the object's %d bytes", st.BytesRead, len(obj))
		}

		removed, err := s.GC(func(string) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if hit && removed != 0 {
			t.Fatal("GC keeping all deleted an object that hits")
		}
		if decided && (removed == 0) != keyOK {
			t.Fatalf("GC keeping all removed %d; the object's key matches: %v", removed, keyOK)
		}
		if _, err := s.GC(func(string) bool { return false }); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 {
			t.Fatalf("GC keeping none left %d entries", s.Len())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("GC keeping none left the object on disk: %v", err)
		}
	})
}

// predict says what the store should make of obj as the object for key,
// reading it member by member with encoding/json's field matching: an
// object (or null, which encoding/json reads as an object with no
// members) whose "key" member is a string equal to key, absent reading
// as "", and whose "data" member decodes into a map[string]any, absent
// reading as null. keyOK reports the key half alone, which is what GC
// checks. decided is false when either member appears more than once: RFC
// 8259 leaves such objects unspecified, and encoding/json decodes every
// occurrence into the same field.
func predict(key string, obj []byte) (hit, keyOK, decided bool) {
	if !json.Valid(obj) {
		return false, false, true
	}
	dec := json.NewDecoder(bytes.NewReader(obj))
	tok, _ := dec.Token()
	if tok == nil {
		return key == "", key == "", true
	}
	if tok != json.Delim('{') {
		return false, false, true
	}
	var keyRaw, dataRaw json.RawMessage
	for dec.More() {
		tok, _ := dec.Token()
		name, _ := tok.(string)
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return false, false, true
		}
		switch {
		case strings.EqualFold(name, "key"):
			if keyRaw != nil {
				return false, false, false
			}
			keyRaw = raw
		case strings.EqualFold(name, "data"):
			if dataRaw != nil {
				return false, false, false
			}
			dataRaw = raw
		}
	}
	var k string
	if keyRaw != nil && json.Unmarshal(keyRaw, &k) != nil {
		return false, false, true
	}
	var m map[string]any
	dataOK := dataRaw == nil || json.Unmarshal(dataRaw, &m) == nil
	return k == key && dataOK, k == key, true
}
