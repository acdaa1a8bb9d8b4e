package xpe

import (
	"container/list"
	"sync"

	"xpe/internal/core"
	"xpe/internal/metrics"
)

// compiledCacheCap bounds the engine's compiled-query cache. Each entry is
// one (source, kind, alphabet generation) compilation, or one (source,
// kind) compilation valid at every generation; distinct generations of the
// same source are distinct entries, so the bound also caps how many stale
// compilations a churning alphabet can pin.
const compiledCacheCap = 256

// cacheKey identifies one compilation: the query source, how it is parsed
// (selection-query syntax vs XPath translation), and the alphabet
// generation it was requested against — anyGen for a stable compilation.
type cacheKey struct {
	kind byte // kindQuery or kindXPath
	gen  uint64
	src  string
}

// anyGen is the key generation of a compilation valid at every generation
// (see stable); no alphabet reaches it.
const anyGen = ^uint64(0)

// Query source kinds (the parse/translate pipeline a source goes through).
const (
	kindQuery = 'q' // Engine.CompileQuery syntax
	kindXPath = 'x' // Engine.CompileXPath translation
)

// cacheEntry is one cached compilation. The entry is inserted before the
// compile runs; once gates the compile so concurrent requests for the same
// key block on the first compiler instead of duplicating the work.
type cacheEntry struct {
	key  cacheKey
	once sync.Once
	cq   *core.CompiledQuery
	err  error
}

// compiledCache is a bounded LRU of compiled queries keyed by
// source × kind × alphabet generation. It is what makes generation
// revalidation affordable: the first evaluation after the alphabet grows
// pays one recompile (a miss), every later evaluation — and every other
// Query object sharing the source — gets the recompiled automata back in a
// map lookup (a hit). Hit/miss/eviction counts flow to the engine's
// metrics registry (Engine.Stats().Cache).
type compiledCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // of *cacheEntry; front = most recently used
	entries map[cacheKey]*list.Element
	metrics *metrics.Cache
}

func newCompiledCache(capacity int, m *metrics.Cache) *compiledCache {
	return &compiledCache{
		cap:     capacity,
		ll:      list.New(),
		entries: map[cacheKey]*list.Element{},
		metrics: m,
	}
}

// get returns the compilation for key, running compile at most once per key
// (concurrent callers block on the winner). A failed compile is evicted
// immediately so a later request can retry.
func (c *compiledCache) get(key cacheKey, compile func() (*core.CompiledQuery, error)) (*core.CompiledQuery, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		c.mu.Unlock()
		c.metrics.Hits.Inc()
		entry.once.Do(func() {}) // wait for an in-flight compile
		return entry.cq, entry.err
	}
	entry := &cacheEntry{key: key}
	c.entries[key] = c.ll.PushFront(entry)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.metrics.Evictions.Inc()
	}
	c.mu.Unlock()
	c.metrics.Misses.Inc()
	entry.once.Do(func() { entry.cq, entry.err = compile() })
	if entry.err != nil {
		c.remove(key, entry)
	}
	return entry.cq, entry.err
}

// lookup returns the compilation under key, counting a hit, or nil
// without counting anything. Only completed compilations are stored under
// the keys it is asked for (rekey moves an entry once its compile is done).
func (c *compiledCache) lookup(key cacheKey) *core.CompiledQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	c.metrics.Hits.Inc()
	return el.Value.(*cacheEntry).cq
}

// rekey moves the completed entry under from to key to, or drops it when
// to is already taken.
func (c *compiledCache) rekey(from, to cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[from]
	if !ok {
		return
	}
	delete(c.entries, from)
	if _, taken := c.entries[to]; taken {
		c.ll.Remove(el)
		return
	}
	el.Value.(*cacheEntry).key = to
	c.entries[to] = el
}

// put inserts an already-completed compilation under key if the key is
// absent. Used to alias a compilation under its post-compile generation:
// compiling a source whose labels were never interned advances the
// generation, so the next same-source compile asks for a key the original
// request could not have known.
func (c *compiledCache) put(key cacheKey, cq *core.CompiledQuery) {
	entry := &cacheEntry{key: key, cq: cq}
	entry.once.Do(func() {})
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = c.ll.PushFront(entry)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.metrics.Evictions.Inc()
	}
}

// remove drops the entry for key if it still is the one given (a failed
// compile must not evict a successful replacement).
func (c *compiledCache) remove(key cacheKey, entry *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == entry {
		c.ll.Remove(el)
		delete(c.entries, key)
	}
}

// len reports the current entry count (tests and the debug surface).
func (c *compiledCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheInfo describes the compiled-query cache at a point in time:
// occupancy against the bound, and the alphabet generation current
// compilations are requested at (entries from older generations are the
// stale compilations the LRU bound caps).
type CacheInfo struct {
	Entries    int    `json:"entries"`
	Capacity   int    `json:"capacity"`
	Generation uint64 `json:"alphabet_generation"`
}

// CacheInfo returns the compiled-query cache's current state; traffic
// counters (hits, misses, evictions) are in Stats().Cache.
func (e *Engine) CacheInfo() CacheInfo {
	return CacheInfo{Entries: e.cache.len(), Capacity: e.cache.cap, Generation: e.names.Generation()}
}
