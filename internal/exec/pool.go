package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cancel"
)

// pool is the shared state of one ForEach fan-out: the job counter workers
// claim indices from, and the first failure.
type pool struct {
	wg sync.WaitGroup
	// next is the next unclaimed job index; a worker claims one with
	// next.Add(1)-1 and exits once the claim reaches n.
	next atomic.Int64
	// stop is set by the first error or panic; workers check it before every
	// claim, so no job is claimed after it is observed.
	stop       atomic.Bool
	mu         sync.Mutex
	firstErr   error
	firstPanic any
	panicked   bool
}

// claim returns the next job index to run, or false once the jobs are
// exhausted or the pool has stopped.
func (p *pool) claim(n int) (int, bool) {
	if p.stop.Load() {
		return 0, false
	}
	i := p.next.Add(1) - 1
	if i >= int64(n) {
		return 0, false
	}
	return int(i), true
}

func (p *pool) fail(err error) {
	p.mu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.mu.Unlock()
	p.stop.Store(true)
}

// run executes one job under panic capture.
func (p *pool) run(chk *cancel.Checker, i int, site string, fn func(chk *cancel.Checker, i int) error) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			if !p.panicked {
				p.panicked = true
				p.firstPanic = r
			}
			p.mu.Unlock()
			p.stop.Store(true)
		}
	}()
	if err := chk.Point(site); err != nil {
		p.fail(err)
		return
	}
	if err := fn(chk, i); err != nil {
		p.fail(err)
	}
}

// finish reports the pool outcome after wg.Wait: re-raise the first panic on
// the caller, otherwise return the first error.
func (p *pool) finish() error {
	if p.panicked {
		panic(fmt.Sprintf("exec: worker panicked: %v", p.firstPanic))
	}
	return p.firstErr
}
