// Package memo provides a small concurrency-safe, singleflight, bounded
// memoization cache. It backs the setup path's shared immutable state —
// the experiment layer's (network, assignment, detector) instances and the
// core layer's per-(n, params) protocol schedule tables — and the
// simulation service's per-spec result cache. Values are built exactly
// once per resident key: concurrent getters of the same key block on the
// single build and share the value by pointer afterwards, so cached values
// must be immutable.
//
// Capacity is bounded because the service sweeps arbitrarily many distinct
// scenario specs per process. Each built entry is charged a weight computed
// from its value — 1 by default, so the capacity is an entry count, or the
// value's size in bytes for the instance memo, whose values range from a
// few kilobytes to tens of megabytes. Cold entries are evicted
// least-recently-used while the resident weight exceeds the capacity, and
// a later Get deterministically rebuilds them.
package memo

import (
	"container/list"
	"sync"
)

// LRU is a bounded memoization cache: singleflight Get semantics plus
// least-recently-used eviction by weight. Once the built entries weigh more
// than the capacity, the coldest ones are dropped and a later Get for their
// key rebuilds from scratch. An entry heavier than the whole capacity is
// still built once and shared by every getter that joined its build, then
// dropped at once instead of flushing the rest of the cache. Entries whose
// build is still in flight weigh nothing yet and are pinned (concurrent
// getters hold references to them), so the number of keys may transiently
// grow while builds overlap; the resident weight never exceeds the
// capacity.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int64
	weigh func(V) int64 // nil: every entry weighs 1
	used  int64         // total weight of the built resident entries
	ll    *list.List    // front = most recently used
	m     map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key    K
	once   sync.Once
	built  bool  // guarded by LRU.mu; set with weight once the build returns
	weight int64 // guarded by LRU.mu
	val    V
	err    error
}

// NewLRU returns an LRU retaining at most capacity entries (minimum 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return NewWeighted[K, V](int64(capacity), nil)
}

// NewWeighted returns an LRU whose built entries weigh weigh(value) and
// whose resident entries weigh at most capacity in total (minimum 1).
// weigh also prices memoized errors, from the value the failed build
// returned; weights below 1 count as 1. A nil weigh makes every entry weigh
// 1, as in NewLRU.
func NewWeighted[K comparable, V any](capacity int64, weigh func(V) int64) *LRU[K, V] {
	return &LRU[K, V]{cap: max(capacity, 1), weigh: weigh, ll: list.New(), m: make(map[K]*list.Element)}
}

// Get returns the memoized value for key, building it on first use (or
// again after an eviction) and marking the key most recently used. build
// runs outside the cache lock, concurrent getters of one key share a single
// build, and errors are memoized alongside values.
func (c *LRU[K, V]) Get(key K, build func() (V, error)) (V, error) {
	return c.await(c.lookup(key), build)
}

// lookup returns key's entry marked most recently used, inserting an
// unbuilt one, pinned until its build returns, when the key is absent.
func (c *LRU[K, V]) lookup(key K) *list.Element {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.m[key]; el != nil {
		c.ll.MoveToFront(el)
		return el
	}
	el := c.ll.PushFront(&lruEntry[K, V]{key: key})
	c.m[key] = el
	return el
}

// await returns el's value, running build unless another getter of the
// entry already has; getters holding the entry share one build even after
// settling evicts it.
func (c *LRU[K, V]) await(el *list.Element, build func() (V, error)) (V, error) {
	e := el.Value.(*lruEntry[K, V])
	e.once.Do(func() {
		val, err := build()
		w := c.weightOf(val)
		c.mu.Lock()
		e.val, e.err = val, err
		c.settleLocked(el, w)
		c.mu.Unlock()
	})
	return e.val, e.err
}

// Peek returns the memoized value for key without building: ok is false for
// absent keys, entries still building, and memoized errors. A hit marks the
// key most recently used.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.m[key]
	if el == nil {
		var zero V
		return zero, false
	}
	e := el.Value.(*lruEntry[K, V])
	if !e.built || e.err != nil {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// Add stores val for key as if a build had produced it, marking the key
// most recently used. If the key is already resident the existing entry
// wins — deterministic builds make the two values interchangeable, and
// keeping the first preserves pointer identity for existing holders. A
// value heavier than the capacity is not retained.
func (c *LRU[K, V]) Add(key K, val V) {
	w := c.weightOf(val)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.m[key]; el != nil {
		c.ll.MoveToFront(el)
		return
	}
	e := &lruEntry[K, V]{key: key, val: val}
	e.once.Do(func() {}) // consume the once so Get never rebuilds
	el := c.ll.PushFront(e)
	c.m[key] = el
	c.settleLocked(el, w)
}

func (c *LRU[K, V]) weightOf(val V) int64 {
	if c.weigh == nil {
		return 1
	}
	return max(c.weigh(val), 1)
}

// settleLocked marks a finished entry built, charges its weight and marks
// it most recently used, since its getters are about to use it. An entry
// heavier than the capacity is dropped on the spot, as every getter that
// joined its build already holds the value; otherwise least-recently-used
// built entries are evicted until the resident weight fits, skipping
// entries still building.
func (c *LRU[K, V]) settleLocked(el *list.Element, w int64) {
	e := el.Value.(*lruEntry[K, V])
	e.built, e.weight = true, w
	c.used += w
	if w > c.cap {
		c.removeLocked(el)
		return
	}
	c.ll.MoveToFront(el)
	for el := c.ll.Back(); el != nil && c.used > c.cap; {
		prev := el.Prev()
		if el.Value.(*lruEntry[K, V]).built {
			c.removeLocked(el)
		}
		el = prev
	}
}

func (c *LRU[K, V]) removeLocked(el *list.Element) {
	e := el.Value.(*lruEntry[K, V])
	c.ll.Remove(el)
	delete(c.m, e.key)
	c.used -= e.weight
}

// Len returns the number of keys resident in the cache (built or building).
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Weight returns the total weight of the built resident entries; it never
// exceeds the capacity.
func (c *LRU[K, V]) Weight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
