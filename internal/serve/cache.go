package serve

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Cache tiers for hit accounting.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
)

// Cache is the content-addressed result store: an on-disk directory of
// <key>.json files (the durable tier — results keyed by spec content hash
// are valid forever) fronted by a bounded in-memory LRU so a hot sweep
// re-requested by many clients is served without touching the filesystem.
type Cache struct {
	dir        string
	maxEntries int

	mu  sync.Mutex
	ll  *list.List               // front = most recently used
	idx map[string]*list.Element // key → element; value is *cacheEntry
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache opens (creating if needed) the store rooted at dir. maxEntries
// bounds the in-memory front; <= 0 selects the default of 128 results.
func NewCache(dir string, maxEntries int) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 128
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return &Cache{dir: dir, maxEntries: maxEntries, ll: list.New(), idx: make(map[string]*list.Element)}, nil
}

// path maps a content key to its on-disk file. Keys are hex SHA-256
// strings (validated by keyOK), so they are safe file names.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// keyOK rejects anything that is not a lower-case hex digest — defense in
// depth against path traversal through the /results/{key} URL.
func keyOK(key string) bool {
	if len(key) != 64 {
		return false
	}
	return strings.IndexFunc(key, func(r rune) bool {
		return (r < '0' || r > '9') && (r < 'a' || r > 'f')
	}) < 0
}

// Get returns the cached result bytes for key and the tier that served it
// (TierMemory or TierDisk). A disk hit is promoted into the memory front.
// Callers must not mutate the returned slice.
func (c *Cache) Get(key string) ([]byte, string, bool) {
	if !keyOK(key) {
		return nil, "", false
	}
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, TierMemory, true
	}
	c.mu.Unlock()

	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, "", false
	}
	c.mu.Lock()
	c.install(key, data)
	c.mu.Unlock()
	return data, TierDisk, true
}

// Has reports whether key is resident in either tier without promoting or
// reading the body (used by queue resume to dedupe checkpointed jobs).
func (c *Cache) Has(key string) bool {
	if !keyOK(key) {
		return false
	}
	c.mu.Lock()
	_, ok := c.idx[key]
	c.mu.Unlock()
	if ok {
		return true
	}
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Put stores a computed result under key in both tiers. The disk write is
// atomic (temp file + rename), so a crash mid-write never leaves a
// half-result addressable; re-putting an existing key is a no-op rewrite
// of identical bytes (results are deterministic by construction).
func (c *Cache) Put(key string, data []byte) error {
	if !keyOK(key) {
		return fmt.Errorf("serve: invalid cache key %q", key)
	}
	if err := c.writeAtomic(c.path(key), data); err != nil {
		return err
	}
	c.mu.Lock()
	c.install(key, data)
	c.mu.Unlock()
	return nil
}

func (c *Cache) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("serve: cache put: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: cache put: %w", werr)
	}
	return nil
}

// install inserts (or refreshes) a memory-front entry and evicts from the
// LRU tail past capacity. Callers hold c.mu.
func (c *Cache) install(key string, data []byte) {
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).data = data
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, data: data})
	for c.ll.Len() > c.maxEntries {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.idx, tail.Value.(*cacheEntry).key)
	}
}

// MemLen returns the number of results resident in the memory front.
func (c *Cache) MemLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
