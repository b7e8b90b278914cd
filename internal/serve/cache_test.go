package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func tkey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := NewCache(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	key, data := tkey(0), []byte(`{"rows":1}`)
	if _, _, ok := c.Get(key); ok {
		t.Fatal("Get on empty cache hit")
	}
	if err := c.Put(key, data); err != nil {
		t.Fatal(err)
	}
	got, tier, ok := c.Get(key)
	if !ok || tier != TierMemory || !bytes.Equal(got, data) {
		t.Fatalf("Get = (%q, %s, %v), want memory hit with the stored bytes", got, tier, ok)
	}
}

// TestCacheDiskTier: a fresh Cache over an existing directory serves from
// disk (the durable tier survives restarts) and promotes into memory.
func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, _ := NewCache(dir, 4)
	key, data := tkey(1), []byte("persisted")
	if err := c1.Put(key, data); err != nil {
		t.Fatal(err)
	}

	c2, _ := NewCache(dir, 4)
	got, tier, ok := c2.Get(key)
	if !ok || tier != TierDisk || !bytes.Equal(got, data) {
		t.Fatalf("restart Get = (%q, %s, %v), want disk hit", got, tier, ok)
	}
	if _, tier, _ := c2.Get(key); tier != TierMemory {
		t.Fatalf("second Get tier = %s, want memory (disk hits must promote)", tier)
	}
}

// TestCacheLRUEviction: the memory front is bounded; evicted entries stay
// reachable through the disk tier.
func TestCacheLRUEviction(t *testing.T) {
	c, _ := NewCache(t.TempDir(), 2)
	for i := 0; i < 3; i++ {
		if err := c.Put(tkey(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.MemLen(); n != 2 {
		t.Fatalf("MemLen = %d, want 2", n)
	}
	// Key 0 is the LRU victim: still a hit, but from disk.
	if _, tier, ok := c.Get(tkey(0)); !ok || tier != TierDisk {
		t.Fatalf("evicted key: tier %s ok %v, want disk hit", tier, ok)
	}
	// Keys 1 and 2 stayed resident.
	if _, tier, _ := c.Get(tkey(2)); tier != TierMemory {
		t.Fatalf("resident key served from %s, want memory", tier)
	}
}

// TestCacheRejectsBadKeys: anything but a 64-char lower-hex digest is
// refused in both directions (the key doubles as a file name).
func TestCacheRejectsBadKeys(t *testing.T) {
	c, _ := NewCache(t.TempDir(), 2)
	for _, key := range []string{"", "short", "../../etc/passwd",
		tkey(0)[:63] + "/", tkey(0)[:63] + "G"} {
		if err := c.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, _, ok := c.Get(key); ok {
			t.Errorf("Get(%q) hit on an invalid key", key)
		}
		if c.Has(key) {
			t.Errorf("Has(%q) = true on an invalid key", key)
		}
	}
}

// TestCachePutAtomic: no partially written result file is left behind, and
// the final file holds exactly the stored bytes.
func TestCachePutAtomic(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir, 2)
	key := tkey(5)
	if err := c.Put(key, []byte("final")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != key+".json" {
		t.Fatalf("cache dir holds %v, want exactly %s.json (no temp files)", entries, key)
	}
	data, _ := os.ReadFile(filepath.Join(dir, key+".json"))
	if string(data) != "final" {
		t.Fatalf("on-disk bytes %q", data)
	}
}
