package serve

import (
	"container/list"
	"sync"

	"gebe/internal/api"
)

// lruCache is a size-bounded LRU over recommendation lists. Repeated
// recommend queries for the same (user, n, mask) tuple are the common
// hot pattern in serving — popular users get re-requested — and a full
// scoring pass streams the entire item side, so memoizing the tiny
// result list is a large constant-factor win. The bound is an entry
// count, not bytes: every value is at most maxN scored items.
//
// Concurrency-safe; a nil *lruCache never hits (caching disabled).
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val []api.ScoredItem
}

// newLRU returns a cache bounded to cap entries, or nil when cap <= 0.
func newLRU(cap int) *lruCache {
	if cap <= 0 {
		return nil
	}
	return &lruCache{cap: cap, ll: list.New(), items: make(map[string]*list.Element, cap)}
}

// get returns the cached value and refreshes its recency.
func (c *lruCache) get(key string) ([]api.ScoredItem, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts or refreshes a value, evicting the least recently used
// entry when full. Values are stored as-is: callers must not mutate a
// slice after handing it over (the handlers build a fresh slice per
// miss and only ever read it back).
func (c *lruCache) add(key string, val []api.ScoredItem) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// purge drops every entry. Called on model swap: keys are scoped to the
// model version, so the stale entries could never be served again — the
// purge just returns their memory ahead of LRU eviction.
func (c *lruCache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// len returns the current entry count.
func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
