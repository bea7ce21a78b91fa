package mapreduce

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolForEachCoverage checks every item runs exactly once, on a
// lane inside the pool's width, across many batch shapes.
func TestPoolForEachCoverage(t *testing.T) {
	p := NewPool(4)
	for _, n := range []int{0, 1, 2, 3, 4, 7, 64, 1000} {
		hits := make([]atomic.Int32, n)
		p.ForEach(n, func(item, lane int) {
			if lane < 0 || lane >= 4 {
				t.Errorf("n=%d: item %d ran on lane %d", n, item, lane)
			}
			hits[item].Add(1)
		})
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Errorf("n=%d: item %d ran %d times", n, i, c)
			}
		}
	}
}

// TestPoolSequentialFallbacks checks the inline paths: nil pool,
// width-1 pool, single-item batch. All must run every item on lane 0,
// in order.
func TestPoolSequentialFallbacks(t *testing.T) {
	check := func(name string, p *Pool, n int) {
		t.Helper()
		ran := 0
		p.ForEach(n, func(item, lane int) {
			if lane != 0 {
				t.Errorf("%s: lane %d", name, lane)
			}
			if item != ran {
				t.Errorf("%s: item %d out of order (want %d)", name, item, ran)
			}
			ran++
		})
		if ran != n {
			t.Errorf("%s: ran %d of %d", name, ran, n)
		}
	}
	check("nil", nil, 5)
	check("width-1", NewPool(1), 5)
	check("single-item", NewPool(3), 1)
}

// TestPoolPanicPropagation checks a panicking item reaches the ForEach
// caller while the remaining items still run, and the pool stays
// usable afterwards.
func TestPoolPanicPropagation(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int32
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		p.ForEach(8, func(item, lane int) {
			ran.Add(1)
			if item == 3 {
				panic("boom")
			}
		})
	}()
	if ran.Load() != 8 {
		t.Errorf("%d items ran, want all 8 despite the panic", ran.Load())
	}
	ok := false
	p.ForEach(1, func(int, int) { ok = true })
	if !ok {
		t.Error("pool unusable after a panicking batch")
	}
}

// TestPoolForEachAllocs pins the steady-state cost of a batch at two
// and four lanes: the batch state is reused and the helpers are bound
// once, so starting them allocates nothing on the caller's side, which
// is what keeps per-job morsel scheduling off the alloc profile.
func TestPoolForEachAllocs(t *testing.T) {
	fn := func(int, int) {}
	for _, lanes := range []int{2, 4} {
		p := NewPool(lanes)
		p.ForEach(32, fn) // warm up
		if avg := testing.AllocsPerRun(50, func() { p.ForEach(32, fn) }); avg > 0 {
			t.Errorf("%d lanes: ForEach allocates %.1f objects per batch, want 0", lanes, avg)
		}
	}
}

// TestPoolLeavesNoGoroutine checks a batch's helpers are gone once the
// runtime has unwound them: a pool holds no goroutine between batches.
func TestPoolLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(5)
	p.ForEach(16, func(int, int) {})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a batch, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
