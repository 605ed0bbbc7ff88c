// Package runstore is the content-addressed on-disk cache behind
// incremental scenario sweeps. Each entry maps a canonical key string
// (the sweep engine derives it from the scenario coordinates, the root
// seed, the requested metrics and the engine version) to an opaque value
// — in practice one scenario's canonical Result JSON.
//
// Layout, under the store directory:
//
//	objects/<hh>/<hash>.json   one entry per cached run, where <hash> is
//	                           the lowercase hex SHA-256 of the key and
//	                           <hh> its first two characters. The file is
//	                           a JSON envelope {"key": ..., "data": ...}
//	                           so the key preimage survives inside the
//	                           object itself.
//
// There is no index: the object names are the store. Open lists them and
// reads no object, Put writes one object and nothing else, and only GC
// — the one operation that needs key preimages — reads each object's key.
// Any other file in the tree (a leftover index.json, a temp file of a
// killed writer) is ignored.
//
// Because object names are pure functions of their keys, two stores can
// be merged by unioning their objects/ trees with plain file copies —
// that is how CI folds per-shard stores into one before serving the
// merged sweep from cache.
//
// Writes are atomic (temp file + rename in the same directory), so a
// killed sweep leaves a store containing exactly the scenarios that
// completed; re-running with the same store resumes from them.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Hash returns the store address of a key: hex SHA-256 of its bytes.
func Hash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// envelope is the on-disk object schema: the key preimage plus the
// cached value, kept verbatim as raw JSON.
type envelope struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// Stats snapshots one Store handle's operation counters. Counters are
// per-handle and in-memory only: they start at zero at Open and are
// never persisted, so they measure the traffic this process sent to the
// store, not the store's lifetime history.
type Stats struct {
	// Hits / Misses partition Get calls: a hit decoded a cached value,
	// a miss is everything else (unknown key, unreadable or corrupt
	// object — the degrade-to-recompute path).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts successful Put calls.
	Puts uint64 `json:"puts"`
	// BytesRead / BytesWritten total the envelope bytes moved by hits
	// and successful puts respectively.
	BytesRead    uint64 `json:"bytesRead"`
	BytesWritten uint64 `json:"bytesWritten"`
}

// Store is a goroutine-safe handle on one store directory.
type Store struct {
	dir string

	mu     sync.Mutex
	hashes map[string]struct{} // names of the objects on disk

	hits, misses, puts      atomic.Uint64
	bytesRead, bytesWritten atomic.Uint64
}

// Open opens (creating if necessary) the store rooted at dir. It lists
// the objects tree and reads no object: every objects/<hh>/<hash>.json
// whose <hash> is 64 lowercase hex digits starting with <hh> is an
// entry, whoever wrote it — objects copied in from another shard's store
// included.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty store directory")
	}
	root := filepath.Join(dir, "objects")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	prefixes, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{dir: dir, hashes: map[string]struct{}{}}
	for _, p := range prefixes {
		if !p.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, p.Name()))
		if err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
		for _, f := range files {
			hash, ok := strings.CutSuffix(f.Name(), ".json")
			if ok && isHash(hash) && hash[:2] == p.Name() {
				s.hashes[hash] = struct{}{}
			}
		}
	}
	return s, nil
}

// isHash reports whether name is a Hash result: 64 lowercase hex digits.
func isHash(name string) bool {
	if len(name) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, "objects", hash[:2], hash+".json")
}

// Has reports whether key has an entry, from the in-memory set of object
// names alone — no file read, so counting hits over a large matrix stays
// cheap. A corrupt object can make Has true while Get still misses;
// callers that need the value must use Get.
func (s *Store) Has(key string) bool {
	hash := Hash(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.hashes[hash]
	return ok
}

// Get decodes the value cached for key into v, which must be a non-nil
// pointer, and reports whether it did. The object is decoded in one pass:
// its "data" member goes straight into v (an absent member reads as
// null, which leaves v as it was). A hit needs an object whose "key"
// member equals key and whose data decodes into v; anything else — no
// entry, an unreadable object, a foreign key, malformed data — is a miss
// (the caller recomputes and Put overwrites it), so a damaged store
// degrades to recomputation, never to failure. On a miss v may have been
// partly written.
func (s *Store) Get(key string, v any) (bool, error) {
	hash := Hash(key)
	s.mu.Lock()
	_, known := s.hashes[hash]
	s.mu.Unlock()
	if !known {
		s.misses.Add(1)
		return false, nil
	}
	raw, err := os.ReadFile(s.objectPath(hash))
	if err != nil {
		s.misses.Add(1)
		return false, nil
	}
	env := struct {
		Key  string `json:"key"`
		Data any    `json:"data"`
	}{Data: v}
	if json.Unmarshal(raw, &env) != nil || env.Key != key {
		s.misses.Add(1)
		return false, nil
	}
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(raw)))
	return true, nil
}

// Put stores value under key, atomically: the envelope is written to a
// temp file in the object's directory and renamed into place, so readers
// (and crashed writers) never observe a partial object.
func (s *Store) Put(key string, value []byte) error {
	hash := Hash(key)
	enc, err := json.Marshal(envelope{Key: key, Data: json.RawMessage(value)})
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	path := s.objectPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	s.mu.Lock()
	s.hashes[hash] = struct{}{}
	s.mu.Unlock()
	s.puts.Add(1)
	s.bytesWritten.Add(uint64(len(enc)))
	return nil
}

// Stats snapshots the handle's operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// Len reports the number of cached entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.hashes)
}

// GC deletes every entry whose key the keep predicate rejects and
// reports how many were removed. It reads each object's key; an object
// that cannot be read or decoded, or whose key does not hash to its
// name, can never hit, so GC deletes it too. The lock is not held while
// objects are read or keep runs, so Get and Put proceed during a GC.
func (s *Store) GC(keep func(key string) bool) (int, error) {
	s.mu.Lock()
	hashes := make([]string, 0, len(s.hashes))
	for hash := range s.hashes {
		hashes = append(hashes, hash)
	}
	s.mu.Unlock()
	removed := 0
	for _, hash := range hashes {
		var env struct {
			Key string `json:"key"`
		}
		raw, err := os.ReadFile(s.objectPath(hash))
		if err == nil && json.Unmarshal(raw, &env) == nil && Hash(env.Key) == hash && keep(env.Key) {
			continue
		}
		if err := os.Remove(s.objectPath(hash)); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("runstore: %w", err)
		}
		s.mu.Lock()
		delete(s.hashes, hash)
		s.mu.Unlock()
		removed++
	}
	return removed, nil
}
