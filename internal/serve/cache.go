package serve

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"parmp"
)

// pathCache is a per-tenant LRU over answered queries, each held as its
// path's JSON bytes, encoded once when the path was found. Entries are
// tagged with the snapshot generation they were computed against: a
// snapshot rollover (a round or a repair published) invalidates the whole
// cache, both so misses get retried against the grown roadmap and so
// fresher, shorter paths replace stale ones. Only hits are cached — a
// negative answer is exactly what growth is about to change.
type pathCache struct {
	mu      sync.Mutex
	max     int
	gen     int64 // snapshot generation the live entries answer for
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

// cacheEntry holds an answer's encodePath bytes, never written after put.
type cacheEntry struct {
	key  string
	path []byte
}

// newPathCache returns a cache holding at most max entries; max <= 0
// disables it (every lookup misses, every insert is dropped).
func newPathCache(max int) *pathCache {
	return &pathCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// cacheKey packs (start, goal, k) into an exact map key.
func cacheKey(start, goal parmp.Config, k int) string {
	b := make([]byte, 8*(len(start)+len(goal))+9)
	for i, v := range start {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	off := 8 * len(start)
	b[off] = 0xff // separator: (a,b|c) must not collide with (a|b,c)
	for i, v := range goal {
		binary.LittleEndian.PutUint64(b[off+1+8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(k))
	return string(b)
}

// get returns the cached encoded path for key when present and computed
// against snapshot generation gen. The returned bytes are shared: callers
// must not mutate them.
func (c *pathCache) get(key string, gen int64) ([]byte, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).path, true
}

// put caches path under key for snapshot generation gen, evicting the
// least recently used entry beyond capacity. A put tagged with a
// generation other than the cache's current one is dropped: the query
// that computed it raced a rollover, and its answer may already be stale.
func (c *pathCache) put(key string, gen int64, path []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).path = path
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, path: path})
	for len(c.entries) > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
	}
}

// invalidate drops every entry and retags the cache for snapshot
// generation gen. Idempotent per generation, and a generation older than
// the cache's is ignored: a caller that read gen before a later publish
// retagged the cache must not turn it back.
func (c *pathCache) invalidate(gen int64) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen <= c.gen {
		return
	}
	c.gen = gen
	c.entries = make(map[string]*list.Element)
	c.order.Init()
}

// len returns the number of live entries.
func (c *pathCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
