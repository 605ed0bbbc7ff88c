package runstore

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// getRaw fetches key's value as raw JSON.
func getRaw(s *Store, key string) (string, bool) {
	var v json.RawMessage
	ok, err := s.Get(key, &v)
	if err != nil || !ok {
		return "", false
	}
	return string(v), true
}

// mustOpen opens the store at dir or fails the test.
func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storeFiles lists every file under dir, relative to it and sorted.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out = append(out, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	val := []byte(`{"blocks":30,"forks":2}`)
	if err := s.Put("k1", val); err != nil {
		t.Fatal(err)
	}
	var got json.RawMessage
	ok, err := s.Get("k1", &got)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(got) != string(val) {
		t.Fatalf("value changed in the store: got %s want %s", got, val)
	}
	if _, ok := getRaw(s, "k2"); ok {
		t.Fatal("Get reported a hit for a key never stored")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestReopenServesWithoutIndex pins that the object names are the whole
// store: a reopened handle serves every object, and no operation writes
// anything beside the objects.
func TestReopenServesWithoutIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Put("alpha", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("beta", []byte(`2`)); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, key := range []string{"alpha", "beta"} {
		want = append(want, "objects/"+Hash(key)[:2]+"/"+Hash(key)+".json")
	}
	sort.Strings(want)
	if got := storeFiles(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("store holds %v, want only the objects %v", got, want)
	}

	s2 := mustOpen(t, dir)
	if s2.Len() != 2 || !s2.Has("alpha") || !s2.Has("beta") {
		t.Fatalf("reopen listed %d entries, want alpha and beta", s2.Len())
	}
	for key, val := range map[string]string{"alpha": "1", "beta": "2"} {
		if got, ok := getRaw(s2, key); !ok || got != val {
			t.Fatalf("reopen lost %s: ok=%v got=%s", key, ok, got)
		}
	}
}

// TestStaleIndexRowDropped pins that a leftover index.json — from an
// older version of the store, valid, corrupt, or listing objects that
// are gone — changes neither Len nor any Get and is never rewritten.
func TestStaleIndexRowDropped(t *testing.T) {
	gone := Hash("gone")
	indexes := map[string]string{
		"valid":   `{"version":1,"entries":{"` + Hash("live") + `":{"key":"live"}}}`,
		"corrupt": `{"version":1,"entr`,
		"deleted": `{"version":1,"entries":{"` + gone + `":{"key":"gone"},"` + Hash("live") + `":{"key":"live"}}}`,
	}
	for name, index := range indexes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			for _, key := range []string{"gone", "live"} {
				if err := s.Put(key, []byte(`"`+key+`"`)); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.Remove(filepath.Join(dir, "objects", gone[:2], gone+".json")); err != nil {
				t.Fatal(err)
			}
			indexPath := filepath.Join(dir, "index.json")
			if err := os.WriteFile(indexPath, []byte(index), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := mustOpen(t, dir)
			if s2.Len() != 1 || s2.Has("gone") {
				t.Fatalf("Len = %d, Has(gone) = %v; want 1 entry, no gone", s2.Len(), s2.Has("gone"))
			}
			if _, ok := getRaw(s2, "gone"); ok {
				t.Fatal("Get hit an entry whose object was deleted")
			}
			if got, ok := getRaw(s2, "live"); !ok || got != `"live"` {
				t.Fatalf("live entry: ok=%v got=%s", ok, got)
			}
			if err := s2.Put("new", []byte(`3`)); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.GC(func(key string) bool { return key != "new" }); err != nil {
				t.Fatal(err)
			}
			if raw, err := os.ReadFile(indexPath); err != nil || string(raw) != index {
				t.Fatalf("index.json was rewritten: err=%v, now %q", err, raw)
			}
		})
	}
}

func TestCorruptObjectIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath(Hash("k")), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v json.RawMessage
	if ok, err := s.Get("k", &v); ok || err != nil {
		t.Fatalf("corrupt object must degrade to a miss: ok=%v err=%v", ok, err)
	}
	// Overwriting heals it.
	if err := s.Put("k", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok := getRaw(s, "k"); !ok || got != `{"v":2}` {
		t.Fatalf("Put did not heal the entry: ok=%v got=%s", ok, got)
	}
}

// TestGC pins GC's reads: it keeps what keep accepts, deletes the rest
// and every object overwritten with garbage (which still counts in Len
// and Has until then, but can never hit), leaves files that are not
// objects alone, and its result survives a reopen.
func TestGC(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, k := range []string{"keep-1", "keep-2", "keep-garbage", "drop-1", "drop-2", "drop-3"} {
		if err := s.Put(k, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(s.objectPath(Hash("keep-garbage")), []byte("\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A temp file left by a killed writer, and names that are not Hash
	// results or sit under the wrong prefix directory.
	h := Hash("keep-1")
	strays := []string{
		filepath.Join("objects", h[:2], ".tmp-123"),
		filepath.Join("objects", h[:2], strings.ToUpper(h)+".json"),
		filepath.Join("objects", "zz", h+".json"),
	}
	for _, stray := range strays {
		path := filepath.Join(dir, stray)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(`{"key":"keep-1","data":{}}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s = mustOpen(t, dir)
	if s.Len() != 6 || !s.Has("keep-garbage") {
		t.Fatalf("Open listed %d entries (Has(keep-garbage)=%v), want the 6 objects", s.Len(), s.Has("keep-garbage"))
	}
	if _, ok := getRaw(s, "keep-garbage"); ok {
		t.Fatal("garbage object hit")
	}
	removed, err := s.GC(func(key string) bool { return strings.HasPrefix(key, "keep-") })
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 || s.Len() != 2 {
		t.Fatalf("GC removed %d (want 3 dropped + 1 garbage), left %d (want 2)", removed, s.Len())
	}
	for _, stray := range strays {
		if _, err := os.Stat(filepath.Join(dir, stray)); err != nil {
			t.Fatalf("GC touched %s: %v", stray, err)
		}
	}
	s2 := mustOpen(t, dir)
	if s2.Len() != 2 || s2.Has("keep-garbage") || s2.Has("drop-1") {
		t.Fatalf("post-GC reopen: Len = %d, want keep-1 and keep-2 only", s2.Len())
	}
	for _, k := range []string{"keep-1", "keep-2"} {
		if got, ok := getRaw(s2, k); !ok || got != `{}` {
			t.Fatalf("post-GC %s: ok=%v got=%s", k, ok, got)
		}
	}
}

func TestUnionByFileCopy(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("only-a", []byte(`"A"`)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("only-b", []byte(`"B"`)); err != nil {
		t.Fatal(err)
	}

	// Copy B's objects tree into A — exactly what the CI merge job does.
	err = filepath.Walk(filepath.Join(dirB, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dirB, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dirA, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	merged, err := Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 2 {
		t.Fatalf("union holds %d entries, want 2", merged.Len())
	}
	if got, ok := getRaw(merged, "only-b"); !ok || got != `"B"` {
		t.Fatalf("adopted entry unreadable: ok=%v got=%s", ok, got)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := "k" + string(rune('a'+i%8))
			val, _ := json.Marshal(i)
			if err := s.Put(key, val); err != nil {
				t.Error(err)
			}
			var v int
			if _, err := s.Get(key, &v); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
}

// TestGCConcurrentWithPuts runs GC while other goroutines put and get
// entries it keeps: every kept entry still hits afterwards and every
// rejected one is gone.
func TestGCConcurrentWithPuts(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for i := 0; i < 16; i++ {
		if err := s.Put("drop-"+string(rune('a'+i)), []byte(`0`)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if err := s.Put(key, []byte(`1`)); err != nil {
				t.Error(err)
			}
			if _, ok := getRaw(s, key); !ok {
				t.Errorf("%s missed right after its Put", key)
			}
		}("keep-" + string(rune('a'+i)))
	}
	removed, err := s.GC(func(key string) bool { return strings.HasPrefix(key, "keep-") })
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 16 || s.Len() != 16 {
		t.Fatalf("GC removed %d (want 16), left %d (want 16)", removed, s.Len())
	}
	for i := 0; i < 16; i++ {
		if got, ok := getRaw(s, "keep-"+string(rune('a'+i))); !ok || got != `1` {
			t.Fatalf("keep-%c: ok=%v got=%s", 'a'+i, ok, got)
		}
	}
}

// TestStatsScriptedSequence pins the Stats counters against an explicit
// hit/miss/put script: misses for unknown keys and corrupt objects, hits
// (with byte totals) only for decodable cached values, puts (with byte
// totals) for successful writes. Counters are per-handle, so a reopened
// store starts from zero.
func TestStatsScriptedSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("fresh handle has non-zero stats: %+v", got)
	}

	// 1. Get of an unknown key: one miss, nothing else.
	if _, ok := getRaw(s, "absent"); ok {
		t.Fatal("unknown key reported as a hit")
	}
	// 2-3. Two puts.
	if err := s.Put("a", []byte(`"alpha"`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte(`"beta"`)); err != nil {
		t.Fatal(err)
	}
	// 4-5. Hit each once.
	for _, key := range []string{"a", "b"} {
		if _, ok := getRaw(s, key); !ok {
			t.Fatalf("put key %q missed", key)
		}
	}
	// 6. Corrupt b's object on disk: the next Get degrades to a miss.
	if err := os.WriteFile(s.objectPath(Hash("b")), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := getRaw(s, "b"); ok {
		t.Fatal("corrupt object reported as a hit")
	}

	got := s.Stats()
	if got.Hits != 2 || got.Misses != 2 || got.Puts != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 2 misses, 2 puts", got)
	}
	// Each object is the envelope {"key":...,"data":...}; both byte
	// totals count envelope bytes, and the two hits read back exactly
	// what the two puts wrote.
	if got.BytesWritten == 0 || got.BytesRead != got.BytesWritten {
		t.Fatalf("stats bytes = read %d, written %d; want equal and non-zero",
			got.BytesRead, got.BytesWritten)
	}

	// A fresh handle on the same directory starts from zero.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats(); got != (Stats{}) {
		t.Fatalf("reopened handle inherited stats: %+v", got)
	}
}
