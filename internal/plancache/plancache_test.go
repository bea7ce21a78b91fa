package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoBasic(t *testing.T) {
	c := New[int](4)
	v, hit, err := c.Do("a", func() (int, error) { return 1, nil })
	if err != nil || hit || v != 1 {
		t.Fatalf("first Do: v=%d hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.Do("a", func() (int, error) { t.Fatal("recomputed"); return 0, nil })
	if err != nil || !hit || v != 1 {
		t.Fatalf("second Do: v=%d hit=%v err=%v", v, hit, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](2) // capacity < shardCount: a single shard, capacity 2
	if len(c.shards) != 1 {
		t.Fatalf("want 1 shard for tiny capacity, got %d", len(c.shards))
	}
	mk := func(k string, v int) {
		if _, _, err := c.Do(k, func() (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", 1)
	mk("b", 2)
	mk("a", 1) // touch a: b is now LRU
	mk("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be cached", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSingleflight(t *testing.T) {
	c := New[int](8)
	const waiters = 32
	var computes atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do("key", func() (int, error) {
				computes.Add(1)
				<-gate // hold every racer in the waiting path
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("v=%d err=%v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, waiters-1)
	}
}

func TestErrorNotCached(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed computation left an entry")
	}
	v, hit, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestPanickingComputeDoesNotWedge holds Do to its cleanup when a
// compute panics: the panic reaches the computing caller, a caller that
// was waiting on the computation retries and computes the value itself,
// and a later Do of the key computes again — none of them blocks.
func TestPanickingComputeDoesNotWedge(t *testing.T) {
	c := New[int](4)
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _, _ = c.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		v, _, err := c.Do("k", func() (int, error) { return 7, nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- v
	}()
	close(release)
	deadline := time.After(2 * time.Second)
	select {
	case r := <-panicked:
		if r != "boom" {
			t.Fatalf("the computing caller recovered %v, want the compute's panic", r)
		}
	case <-deadline:
		t.Fatal("the panicking Do did not return")
	}
	select {
	case v := <-waiter:
		if v != 7 {
			t.Fatalf("the waiter got %d, want its own compute's 7", v)
		}
	case <-deadline:
		t.Fatal("a caller waiting on the panicking compute is still blocked after 2 s")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, hit, err := c.Do("k", func() (int, error) { return 9, nil }); err != nil || v != 7 || !hit {
			t.Errorf("a later Do: v=%d hit=%v err=%v, want the waiter's 7 from the cache", v, hit, err)
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("a later Do of the key is still blocked after 2 s")
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	c := New[int](1024)
	var wg sync.WaitGroup
	const gors = 16
	const keys = 64
	var computes atomic.Int32
	for g := 0; g < gors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*keys; i++ {
				k := fmt.Sprintf("key-%d", (g+i)%keys)
				want := (g + i) % keys
				v, _, err := c.Do(k, func() (int, error) {
					computes.Add(1)
					return want, nil
				})
				if err != nil || v != want {
					t.Errorf("k=%s v=%d want %d err=%v", k, v, want, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := computes.Load(); n != keys {
		t.Errorf("computes = %d, want exactly %d (one per key)", n, keys)
	}
	if c.Len() != keys {
		t.Errorf("len = %d, want %d", c.Len(), keys)
	}
}

func TestPurge(t *testing.T) {
	c := New[int](16)
	c.Do("a", func() (int, error) { return 1, nil })
	c.Purge()
	if c.Len() != 0 {
		t.Error("purge left entries")
	}
	if _, hit, _ := c.Do("a", func() (int, error) { return 2, nil }); hit {
		t.Error("hit after purge")
	}
}

// sizedSameShard returns distinct keys that all land in one shard of a
// shardCount-sharded cache, so LRU/budget interactions are
// deterministic in tests.
func sizedSameShard(n int) []string {
	want := shardIndex("anchor") % shardCount
	keys := make([]string, 0, n)
	for i := 0; keys == nil || len(keys) < n; i++ {
		k := fmt.Sprintf("k-%d", i)
		if shardIndex(k)%shardCount == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestSizedAdmitAndBytes(t *testing.T) {
	c := NewSized[int](8<<10, func(v int) int64 { return int64(v) })
	c.Do("a", func() (int, error) { return 100, nil })
	c.Do("b", func() (int, error) { return 250, nil })
	if got := c.Bytes(); got != 350 {
		t.Errorf("Bytes = %d, want 350", got)
	}
	st := c.Stats()
	if st.Bytes != 350 || st.Entries != 2 || st.Evictions != 0 || st.EvictedBytes != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSizedEvictionOrder(t *testing.T) {
	// Per-shard budget = ceil(800/8) = 100; entries weigh 40 — two fit
	// per shard, a third evicts that shard's LRU tail.
	c := NewSized[int](800, func(v int) int64 { return int64(v) })
	keys := sizedSameShard(3)
	c.Do(keys[0], func() (int, error) { return 40, nil })
	c.Do(keys[1], func() (int, error) { return 40, nil })
	// Touch keys[0] so keys[1] is the LRU tail.
	if _, hit, _ := c.Do(keys[0], func() (int, error) { return 0, nil }); !hit {
		t.Fatal("expected hit on touch")
	}
	c.Do(keys[2], func() (int, error) { return 40, nil })
	if _, ok := c.Get(keys[1]); ok {
		t.Error("LRU entry should have been evicted")
	}
	for _, k := range []string{keys[0], keys[2]} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictedBytes != 40 || st.Bytes != 80 {
		t.Errorf("stats = %+v, want 1 eviction of 40 bytes, 80 resident", st)
	}
}

func TestSizedOversizedNotRetained(t *testing.T) {
	c := NewSized[int](800, func(v int) int64 { return int64(v) }) // per-shard 100
	v, hit, err := c.Do("big", func() (int, error) { return 500, nil })
	if err != nil || hit || v != 500 {
		t.Fatalf("Do: v=%d hit=%v err=%v", v, hit, err)
	}
	if _, ok := c.Get("big"); ok {
		t.Error("oversized entry should not be retained")
	}
	st := c.Stats()
	if st.Bytes != 0 || st.Evictions != 1 || st.EvictedBytes != 500 {
		t.Errorf("stats = %+v", st)
	}
	// The next Do recomputes (the entry was dropped, not cached).
	if _, hit, _ := c.Do("big", func() (int, error) { return 500, nil }); hit {
		t.Error("oversized entry served as a hit")
	}
}

func TestSizedPurgeResetsBytes(t *testing.T) {
	c := NewSized[int](8<<10, func(v int) int64 { return int64(v) })
	c.Do("a", func() (int, error) { return 123, nil })
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("after purge: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if _, hit, _ := c.Do("a", func() (int, error) { return 5, nil }); hit {
		t.Error("hit after purge")
	}
	if got := c.Bytes(); got != 5 {
		t.Errorf("Bytes after reinsert = %d, want 5", got)
	}
}

func TestSizedConcurrent(t *testing.T) {
	// Hammer a small budget from many goroutines: values must always be
	// correct and resident bytes must stay within budget + one in-flight
	// admission per shard.
	c := NewSized[int](400, func(v int) int64 { return int64(v) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k-%d", (g*7+i)%32)
				v, _, err := c.Do(k, func() (int, error) { return 30, nil })
				if err != nil || v != 30 {
					t.Errorf("v=%d err=%v", v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Bytes(); got > 400+int64(shardCount)*30 {
		t.Errorf("resident bytes %d exceed budget slack", got)
	}
}
