package memo

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU[int, *int](2)
	var builds atomic.Int32
	get := func(k int) *int {
		v, err := c.Get(k, func() (*int, error) {
			builds.Add(1)
			x := k * 10
			return &x, nil
		})
		if err != nil {
			t.Fatalf("Get(%d): %v", k, err)
		}
		return v
	}
	a := get(1)
	get(2)
	if get(1) != a {
		t.Fatalf("key 1 rebuilt while within capacity")
	}
	// 2 is now the coldest entry; inserting 3 must evict it, not 1.
	get(3)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if get(1) != a {
		t.Fatalf("hot key 1 was evicted")
	}
	if get(2) == nil {
		t.Fatalf("Get(2) after eviction returned nil")
	}
	// Builds: 1, 2, 3, then 2 again after its eviction.
	if n := builds.Load(); n != 4 {
		t.Fatalf("build ran %d times, want 4", n)
	}
}

func TestLRUCachesErrorsUntilEvicted(t *testing.T) {
	c := NewLRU[string, *int](1)
	var builds atomic.Int32
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.Get("k", func() (*int, error) {
			builds.Add(1)
			return nil, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("Get err = %v, want boom", err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failed build ran %d times, want 1", n)
	}
	if _, ok := c.Peek("k"); ok {
		t.Fatalf("Peek returned ok for a memoized error")
	}
}

func TestLRUPeekAndAdd(t *testing.T) {
	c := NewLRU[string, *int](2)
	if _, ok := c.Peek("absent"); ok {
		t.Fatalf("Peek hit an absent key")
	}
	x := 7
	c.Add("a", &x)
	if v, ok := c.Peek("a"); !ok || v != &x {
		t.Fatalf("Peek(a) = (%v, %v), want (&x, true)", v, ok)
	}
	// Get must not rebuild an Added entry.
	v, err := c.Get("a", func() (*int, error) {
		t.Fatalf("build ran for an Added key")
		return nil, nil
	})
	if err != nil || v != &x {
		t.Fatalf("Get(a) = (%v, %v), want (&x, nil)", v, err)
	}
	// Re-Adding keeps the resident value (first wins).
	y := 8
	c.Add("a", &y)
	if v, _ := c.Peek("a"); v != &x {
		t.Fatalf("re-Add replaced the resident value")
	}
	// Peek refreshes recency: after peeking "a", adding two more evicts "b".
	c.Add("b", &y)
	c.Peek("a")
	c.Add("c", &y)
	if _, ok := c.Peek("b"); ok {
		t.Fatalf("cold key b survived eviction")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatalf("peeked key a was evicted")
	}
}

func TestLRUSingleflightUnderConcurrency(t *testing.T) {
	c := NewLRU[int, *int](8)
	var builds atomic.Int32
	const goroutines = 32
	ptrs := make([]*int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := c.Get(7, func() (*int, error) {
				builds.Add(1)
				x := 42
				return &x, nil
			})
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			ptrs[g] = v
		}(g)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times under concurrency, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if ptrs[g] != ptrs[0] {
			t.Fatalf("goroutine %d saw a different pointer", g)
		}
	}
}

func TestLRUPinsBuildingEntries(t *testing.T) {
	c := NewLRU[int, *int](1)
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan *int)
	go func() {
		v, _ := c.Get(1, func() (*int, error) {
			close(started)
			<-release
			x := 1
			return &x, nil
		})
		done <- v
	}()
	<-started
	// Capacity 1 with key 1 still building: inserting key 2 may not evict it.
	if _, err := c.Get(2, func() (*int, error) { x := 2; return &x, nil }); err != nil {
		t.Fatalf("Get(2): %v", err)
	}
	close(release)
	first := <-done
	// Key 1 finished building while pinned; it must still be resident.
	v, err := c.Get(1, func() (*int, error) {
		t.Fatalf("pinned entry was evicted and rebuilt")
		return nil, nil
	})
	if err != nil || v != first {
		t.Fatalf("Get(1) = (%v, %v), want the pinned build %v", v, err, first)
	}
}

// weighed is a test value whose weight is its own field.
type weighed struct{ w int64 }

func weightOfValue(v *weighed) int64 {
	if v == nil {
		return 3 // a memoized error
	}
	return v.w
}

// residentWeight sums the charged weight of the built resident entries.
func residentWeight[K comparable, V any](c *LRU[K, V]) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for _, el := range c.m {
		if e := el.Value.(*lruEntry[K, V]); e.built {
			sum += e.weight
		}
	}
	return sum
}

// TestWeightedLRUStaysWithinCapacity drives a weighted cache through a
// seeded mix of Get, Add and Peek over keys of assorted weights — some
// heavier than the whole capacity, some failing — and checks after every
// call that the resident weight is within the capacity and matches the
// entries actually resident.
func TestWeightedLRUStaysWithinCapacity(t *testing.T) {
	const capacity = 100
	c := NewWeighted[int, *weighed](capacity, weightOfValue)
	boom := errors.New("boom")
	rng := rand.New(rand.NewPCG(1, 2))
	weightOf := func(k int) int64 { return int64(k%13)*9 + 1 } // 1..109
	for i := 0; i < 5000; i++ {
		k := rng.IntN(40)
		switch rng.IntN(3) {
		case 0:
			v, err := c.Get(k, func() (*weighed, error) {
				if k%10 == 7 {
					return nil, boom
				}
				return &weighed{w: weightOf(k)}, nil
			})
			if k%10 == 7 {
				if !errors.Is(err, boom) {
					t.Fatalf("Get(%d) err = %v, want boom", k, err)
				}
			} else if err != nil || v.w != weightOf(k) {
				t.Fatalf("Get(%d) = (%v, %v)", k, v, err)
			}
		case 1:
			if k%10 != 7 {
				c.Add(k, &weighed{w: weightOf(k)})
			}
		default:
			if v, ok := c.Peek(k); ok && v.w != weightOf(k) {
				t.Fatalf("Peek(%d) = %v", k, v)
			}
		}
		if w := c.Weight(); w > capacity || w != residentWeight(c) {
			t.Fatalf("call %d: Weight = %d (resident %d), capacity %d", i, w, residentWeight(c), capacity)
		}
	}
	if c.Len() == 0 {
		t.Fatalf("cache retained nothing")
	}
}

// TestWeightedLRUEvictsByWeight checks that eviction frees weight, not
// entries: one heavy entry displaces several light cold ones, and the
// survivors are the most recently used.
func TestWeightedLRUEvictsByWeight(t *testing.T) {
	c := NewWeighted[string, *weighed](10, weightOfValue)
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Add(k, &weighed{w: 2})
	}
	c.Peek("a") // "b" is now the coldest
	c.Add("heavy", &weighed{w: 5})
	// 8 + 5 > 10: evicting "b" alone leaves 11, so "c" goes too.
	for k, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true, "heavy": true} {
		if _, ok := c.Peek(k); ok != want {
			t.Errorf("Peek(%s) resident = %v, want %v", k, ok, want)
		}
	}
	if w := c.Weight(); w != 9 {
		t.Fatalf("Weight = %d, want 9", w)
	}
}

// TestWeightedLRUOverBudgetSharedNotRetained checks an entry heavier than
// the whole capacity: every getter that found it in flight receives the
// same pointer from one build, the entry is then dropped instead of
// retained, and the light entry already resident survives it. The getters
// look the key up before any of them waits on the build, so all of them
// join it whichever finishes first.
func TestWeightedLRUOverBudgetSharedNotRetained(t *testing.T) {
	c := NewWeighted[int, *weighed](10, weightOfValue)
	light := &weighed{w: 4}
	c.Add(1, light)
	var builds atomic.Int32
	build := func() (*weighed, error) {
		builds.Add(1)
		return &weighed{w: 1000}, nil
	}
	const getters = 16
	el := c.lookup(2)
	ptrs := make([]*weighed, getters)
	var wg sync.WaitGroup
	for range getters - 1 {
		if c.lookup(2) != el {
			t.Fatalf("in-flight entry was not pinned")
		}
	}
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.await(el, build)
			if err != nil {
				t.Errorf("await: %v", err)
			}
			ptrs[g] = v
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("over-budget value built %d times, want 1", n)
	}
	for g := range ptrs {
		if ptrs[g] == nil || ptrs[g] != ptrs[0] {
			t.Fatalf("getter %d saw %p, getter 0 saw %p", g, ptrs[g], ptrs[0])
		}
	}
	if _, ok := c.Peek(2); ok {
		t.Fatalf("over-budget entry was retained")
	}
	if v, ok := c.Peek(1); !ok || v != light {
		t.Fatalf("over-budget entry evicted the resident light entry")
	}
	if c.Len() != 1 || c.Weight() != 4 {
		t.Fatalf("Len = %d, Weight = %d; want 1 and 4", c.Len(), c.Weight())
	}
	// Not retained means the next getter builds afresh.
	if v, _ := c.Get(2, build); v == ptrs[0] || builds.Load() != 2 {
		t.Fatalf("dropped entry served its old value")
	}
	c.Add(3, &weighed{w: 11})
	if _, ok := c.Peek(3); ok {
		t.Fatalf("over-budget Add was retained")
	}
}

// TestWeightedLRUMemoizesErrors checks that a failed build stays memoized
// under weighted eviction, charged the weight of its value.
func TestWeightedLRUMemoizesErrors(t *testing.T) {
	c := NewWeighted[int, *weighed](10, weightOfValue)
	boom := errors.New("boom")
	var builds atomic.Int32
	for i := 0; i < 3; i++ {
		if _, err := c.Get(1, func() (*weighed, error) {
			builds.Add(1)
			return nil, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("Get err = %v, want boom", err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failed build ran %d times, want 1", n)
	}
	if _, ok := c.Peek(1); ok {
		t.Fatalf("Peek returned ok for a memoized error")
	}
	if w := c.Weight(); w != 3 {
		t.Fatalf("Weight = %d, want the error's 3", w)
	}
}
