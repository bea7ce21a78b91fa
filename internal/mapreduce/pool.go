package mapreduce

import (
	"sync"
	"sync/atomic"
)

// Pool is a set of worker lanes that ForEach batches run on. It owns no
// goroutine: a batch starts its helpers, runs lane 0 on the caller and
// returns once every helper has finished, so nothing outlives the batch
// and a Pool needs no closing.
//
// Lane identity: the ForEach caller works as lane 0 and helper w as lane
// w (1..Lanes()-1). A batch hands each item the lane it runs on, so
// callers can index per-lane scratch without synchronization. One
// ForEach runs at a time per Pool — the same single-flight contract a
// Scratch has.
type Pool struct {
	// helpers[w-1] runs lane w of the batch in flight, bound once, so
	// starting it allocates nothing.
	helpers []func()

	// The batch in flight, reused across ForEach calls. Its fields are
	// published to the helpers by the go statements that start them
	// (happens-before) and read back after wg.Wait.
	n       int
	fn      func(item, lane int)
	next    atomic.Int64
	wg      sync.WaitGroup
	mu      sync.Mutex
	panicky any
}

// NewPool returns a pool of the given width: lane 0 on the caller and
// lanes-1 helpers per batch. Width 1 (or less) has no helper — ForEach
// then runs inline.
func NewPool(lanes int) *Pool {
	p := &Pool{}
	for lane := 1; lane < lanes; lane++ {
		p.helpers = append(p.helpers, func() {
			p.run(lane)
			p.wg.Done()
		})
	}
	return p
}

// Lanes reports the pool width (a nil pool is width 1).
func (p *Pool) Lanes() int {
	if p == nil {
		return 1
	}
	return len(p.helpers) + 1
}

// ForEach runs fn(i, lane) for i in [0, n), distributing items across
// min(Lanes(), n) lanes: it starts a helper goroutine per lane but the
// first, works as lane 0, and returns when every item has run and every
// helper has finished; a panic in any item is re-raised on the caller.
// On a nil or width-1 pool the batch runs inline on lane 0.
func (p *Pool) ForEach(n int, fn func(item, lane int)) {
	if n <= 0 {
		return
	}
	if p.Lanes() == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	p.n, p.fn = n, fn
	p.next.Store(0)
	p.panicky = nil
	helpers := p.helpers[:min(len(p.helpers), n-1)]
	p.wg.Add(len(helpers))
	for _, h := range helpers {
		go h()
	}
	p.run(0)
	p.wg.Wait()
	p.fn = nil
	if p.panicky != nil {
		panic(p.panicky)
	}
}

// run pulls items until the batch is drained. A panicking item is
// recorded (first wins) and the lane moves on to the next item.
func (p *Pool) run(lane int) {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		p.call(i, lane)
	}
}

func (p *Pool) call(i, lane int) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if p.panicky == nil {
				p.panicky = r
			}
			p.mu.Unlock()
		}
	}()
	p.fn(i, lane)
}
