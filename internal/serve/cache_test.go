package serve

import (
	"bytes"
	"testing"

	"parmp"
)

// cfgPath returns the encoded path the cache holds for a path through
// (v, v, v) for each of vals.
func cfgPath(vals ...float64) []byte {
	path := make([]parmp.Config, len(vals))
	for i, v := range vals {
		path[i] = parmp.Config{v, v, v}
	}
	return encodePath(path)
}

func TestPathCacheLRU(t *testing.T) {
	c := newPathCache(2)
	a := cacheKey(parmp.Config{0.1}, parmp.Config{0.9}, 8)
	b := cacheKey(parmp.Config{0.2}, parmp.Config{0.8}, 8)
	d := cacheKey(parmp.Config{0.3}, parmp.Config{0.7}, 8)

	c.put(a, 0, cfgPath(1))
	c.put(b, 0, cfgPath(2))
	if _, ok := c.get(a, 0); !ok {
		t.Fatal("a must be cached")
	}
	// a was just touched, so inserting d evicts b.
	c.put(d, 0, cfgPath(3))
	if _, ok := c.get(b, 0); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get(a, 0); !ok {
		t.Fatal("a must survive (recently used)")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestPathCacheKeyExactness(t *testing.T) {
	// (start, goal) boundaries and k are part of the key: no collisions
	// between rearrangements of the same floats.
	a := cacheKey(parmp.Config{1, 2}, parmp.Config{3}, 8)
	b := cacheKey(parmp.Config{1}, parmp.Config{2, 3}, 8)
	if a == b {
		t.Fatal("start/goal boundary not encoded")
	}
	if cacheKey(parmp.Config{1}, parmp.Config{2}, 4) == cacheKey(parmp.Config{1}, parmp.Config{2}, 8) {
		t.Fatal("k not encoded")
	}
}

func TestPathCacheRolloverInvalidation(t *testing.T) {
	c := newPathCache(8)
	key := cacheKey(parmp.Config{0.1}, parmp.Config{0.9}, 8)
	c.put(key, 0, cfgPath(1))
	if _, ok := c.get(key, 0); !ok {
		t.Fatal("entry must hit at its own round")
	}
	// A reader already on the new snapshot misses even before invalidate.
	if _, ok := c.get(key, 1); ok {
		t.Fatal("new-round reader must miss stale entries")
	}
	c.invalidate(1)
	if _, ok := c.get(key, 1); ok {
		t.Fatal("rollover must drop entries")
	}
	if c.len() != 0 {
		t.Fatalf("len = %d after invalidate", c.len())
	}
	// A straggler batch from the old round must not poison the cache.
	c.put(key, 0, cfgPath(1))
	if _, ok := c.get(key, 1); ok {
		t.Fatal("stale put must be dropped")
	}
	c.put(key, 1, cfgPath(2))
	if path, ok := c.get(key, 1); !ok || !bytes.Equal(path, cfgPath(2)) {
		t.Fatal("current-round put must land")
	}
	// A late invalidate for an older generation (a grow that read its
	// generation before a concurrent mutation published the next) must
	// not move the cache back.
	c.invalidate(2)
	c.invalidate(1)
	c.put(key, 2, cfgPath(3))
	if path, ok := c.get(key, 2); !ok || !bytes.Equal(path, cfgPath(3)) {
		t.Fatal("an older invalidate must not retag the cache")
	}
}

func TestPathCacheDisabled(t *testing.T) {
	c := newPathCache(0)
	key := cacheKey(parmp.Config{0.1}, parmp.Config{0.9}, 8)
	c.put(key, 0, cfgPath(1))
	if _, ok := c.get(key, 0); ok {
		t.Fatal("disabled cache must never hit")
	}
}
