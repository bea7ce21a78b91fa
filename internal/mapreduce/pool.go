package mapreduce

import (
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of worker goroutines executing ForEach
// batches. Workers are spawned once and parked on a channel between
// batches, so a long-lived Pool (e.g. one owned by an execution
// context) amortizes goroutine creation across every phase of every
// job it runs.
//
// Lane identity: the ForEach caller participates as lane 0; worker w
// is permanently lane w (1..Lanes()-1). A batch hands each item the
// lane it runs on, so callers can index per-lane scratch without
// synchronization. One ForEach runs at a time per Pool — the same
// single-flight contract a Scratch has.
type Pool struct {
	lanes  int
	wake   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	state  foreachState
}

// foreachState is the current batch, reused across ForEach calls so a
// batch costs no allocation. Fields are published to workers by the
// wake-channel send (happens-before) and read back after wg.Wait.
type foreachState struct {
	n       int
	fn      func(item, lane int)
	next    atomic.Int64
	wg      sync.WaitGroup
	mu      sync.Mutex
	panicky any
}

// run pulls items until the batch is drained. A panicking item is
// recorded (first wins) and the lane moves on to the next item.
func (s *foreachState) run(lane int) {
	for {
		i := int(s.next.Add(1)) - 1
		if i >= s.n {
			return
		}
		s.call(i, lane)
	}
}

func (s *foreachState) call(i, lane int) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.panicky == nil {
				s.panicky = r
			}
			s.mu.Unlock()
		}
	}()
	s.fn(i, lane)
}

// NewPool spawns a pool of the given width: lanes-1 parked worker
// goroutines plus the caller's lane 0. Width 1 (or less) spawns no
// goroutines — ForEach then runs inline.
func NewPool(lanes int) *Pool {
	if lanes < 1 {
		lanes = 1
	}
	p := &Pool{lanes: lanes, wake: make(chan struct{}, lanes)}
	for w := 1; w < lanes; w++ {
		p.wg.Add(1)
		go func(lane int) {
			defer p.wg.Done()
			for range p.wake {
				p.state.run(lane)
				p.state.wg.Done()
			}
		}(w)
	}
	return p
}

// Lanes reports the pool width (a nil pool is width 1).
func (p *Pool) Lanes() int {
	if p == nil {
		return 1
	}
	return p.lanes
}

// ForEach runs fn(i, lane) for i in [0, n), distributing items across
// the pool's lanes; the caller works as lane 0. It returns when every
// item has run; a panic in any item is re-raised on the caller. On a
// nil, closed or width-1 pool the batch runs inline on lane 0.
func (p *Pool) ForEach(n int, fn func(item, lane int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.lanes <= 1 || n == 1 || p.closed.Load() {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	s := &p.state
	s.n, s.fn = n, fn
	s.next.Store(0)
	s.panicky = nil
	helpers := p.lanes - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	s.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.wake <- struct{}{}
	}
	s.run(0)
	s.wg.Wait()
	s.fn = nil
	if s.panicky != nil {
		panic(s.panicky)
	}
}

// Close terminates the pool's workers and waits for them to exit. It
// must not race a ForEach in flight; afterwards ForEach degrades to
// inline execution. Closing again (or closing nil) is a no-op.
func (p *Pool) Close() {
	if p == nil || !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.wake)
	p.wg.Wait()
}
