package serve

import (
	"fmt"
	"sync"
	"testing"

	"gebe/internal/api"
)

func items(v float64) []api.ScoredItem { return []api.ScoredItem{{Item: 1, Score: v}} }

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.add("a", items(1))
	c.add("b", items(2))
	c.add("c", items(3)) // evicts a, the least recently used
	if _, ok := c.get("a"); ok {
		t.Error("a survived past capacity")
	}
	if v, ok := c.get("b"); !ok || v[0].Score != 2 {
		t.Error("b missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	// get refreshes recency: after touching b, adding d evicts c.
	c.get("b")
	c.add("d", items(4))
	if _, ok := c.get("c"); ok {
		t.Error("c survived although b was fresher")
	}
	if _, ok := c.get("b"); !ok {
		t.Error("recently used b evicted")
	}

	// add on an existing key updates in place without growing.
	c.add("b", items(9))
	if v, _ := c.get("b"); v[0].Score != 9 {
		t.Error("update lost")
	}
	if c.len() != 2 {
		t.Errorf("len after update = %d, want 2", c.len())
	}
}

func TestLRUDisabled(t *testing.T) {
	for _, c := range []*lruCache{nil, newLRU(0), newLRU(-3)} {
		c.add("a", items(1))
		if _, ok := c.get("a"); ok {
			t.Error("disabled cache hit")
		}
		if c.len() != 0 {
			t.Error("disabled cache has length")
		}
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRU(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w+i)%16)
				if v, ok := c.get(key); ok && len(v) == 0 {
					t.Error("empty cached value")
				}
				c.add(key, items(float64(i)))
			}
		}(w)
	}
	wg.Wait()
	if c.len() > 8 {
		t.Errorf("cache overran its bound: %d", c.len())
	}
}
