package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// Long-poll bounds for GET /snapshot?after=G: a poll without ?wait parks
// for defaultPollWait, and no poll parks longer than maxPollWait.
const (
	defaultPollWait = 10 * time.Second
	maxPollWait     = time.Minute
)

// genCounter is a state generation that GET /snapshot long-polls wait on.
// Writers advance it after every change; a poll parks until the value
// differs from the one its caller last saw. Advancing costs one atomic add
// and one atomic load: the wake-up channel is made and closed only while
// a poll is parked.
type genCounter struct {
	n       atomic.Uint64
	waiters atomic.Int32

	mu      sync.Mutex
	changed chan struct{} // closed by the next advance; nil until a poll parks
}

// newGenCounter returns a counter starting at start.
func newGenCounter(start uint64) *genCounter {
	g := &genCounter{}
	g.n.Store(start)
	return g
}

func (g *genCounter) load() uint64 { return g.n.Load() }

// advance records one change and wakes any parked poll.
func (g *genCounter) advance() {
	g.n.Add(1)
	if g.waiters.Load() != 0 {
		g.mu.Lock()
		if g.changed != nil {
			close(g.changed)
			g.changed = nil
		}
		g.mu.Unlock()
	}
}

// wait returns the current value once it differs from after, or when
// bound elapses or either done channel closes, whichever is first. A
// return equal to after means nothing changed.
func (g *genCounter) wait(after uint64, bound time.Duration, done1, done2 <-chan struct{}) uint64 {
	g.waiters.Add(1)
	defer g.waiters.Add(-1)
	timer := time.NewTimer(bound)
	defer timer.Stop()
	for {
		// Take the channel before re-reading the value: an advance between
		// the two either shows in the value or closes this channel.
		g.mu.Lock()
		if g.changed == nil {
			g.changed = make(chan struct{})
		}
		ch := g.changed
		g.mu.Unlock()
		if v := g.n.Load(); v != after {
			return v
		}
		select {
		case <-ch:
		case <-timer.C:
			return g.n.Load()
		case <-done1:
			return g.n.Load()
		case <-done2:
			return g.n.Load()
		}
	}
}
