package notify

import (
	"context"
	"sync"
)

// DefaultQueue is the per-subscriber queue capacity when none is given.
const DefaultQueue = 8

// Hub fans values out to subscribers. The zero value is not usable; build
// one with NewHub. All methods are safe for concurrent use.
type Hub[T any] struct {
	mu     sync.Mutex
	subs   map[*Sub[T]]struct{}
	closed bool
	reason string
}

// NewHub returns an empty hub.
func NewHub[T any]() *Hub[T] {
	return &Hub[T]{subs: make(map[*Sub[T]]struct{})}
}

// Subscribe registers a new subscriber with a bounded queue of the given
// capacity (<= 0 selects DefaultQueue). Subscribing to a hub already closed
// by CloseAll yields an immediately closed subscription carrying the hub's
// terminal reason.
func (h *Hub[T]) Subscribe(queue int) *Sub[T] {
	if queue <= 0 {
		queue = DefaultQueue
	}
	s := &Sub[T]{hub: h, cap: queue, wake: make(chan struct{}, 1)}
	h.mu.Lock()
	if h.closed {
		s.closed = true
		s.reason = h.reason
	} else {
		h.subs[s] = struct{}{}
	}
	h.mu.Unlock()
	return s
}

// Unsubscribe detaches and closes one subscription with the given terminal
// reason. Idempotent; a no-op for subscriptions of other hubs.
func (h *Hub[T]) Unsubscribe(s *Sub[T], reason string) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
	s.close(reason)
}

// Broadcast pushes v to every subscriber, never blocking: subscribers with
// full queues have their newest buffered value replaced (coalesced to
// latest). It returns how many subscribers received the value and how many
// had it coalesced.
func (h *Hub[T]) Broadcast(v T) (delivered, coalesced int) {
	h.mu.Lock()
	targets := make([]*Sub[T], 0, len(h.subs))
	for s := range h.subs {
		targets = append(targets, s)
	}
	h.mu.Unlock()
	for _, s := range targets {
		if c, ok := s.Push(v); ok {
			delivered++
			if c {
				coalesced++
			}
		}
	}
	return delivered, coalesced
}

// Active is the number of live subscriptions.
func (h *Hub[T]) Active() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// CloseAll closes every subscription with the given terminal reason and
// marks the hub closed: later Subscribe calls get already-closed
// subscriptions, later Broadcasts deliver to no one. Buffered values drain
// to their consumers before Next reports the close.
func (h *Hub[T]) CloseAll(reason string) {
	h.mu.Lock()
	h.closed = true
	h.reason = reason
	targets := make([]*Sub[T], 0, len(h.subs))
	for s := range h.subs {
		targets = append(targets, s)
	}
	h.subs = make(map[*Sub[T]]struct{})
	h.mu.Unlock()
	for _, s := range targets {
		s.close(reason)
	}
}

// Sub is one subscriber's bounded, coalescing queue.
type Sub[T any] struct {
	hub *Hub[T]

	mu     sync.Mutex
	buf    []T
	cap    int
	closed bool
	reason string
	wake   chan struct{} // capacity 1: "state changed" edge
}

// Push enqueues v without ever blocking. On a full queue the newest
// buffered value is replaced (coalesced=true). ok=false means the
// subscription is closed and v was dropped.
func (s *Sub[T]) Push(v T) (coalesced, ok bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, false
	}
	if len(s.buf) >= s.cap {
		s.buf[len(s.buf)-1] = v
		coalesced = true
	} else {
		s.buf = append(s.buf, v)
	}
	s.mu.Unlock()
	s.notify()
	return coalesced, true
}

// Next blocks until a value is available, the subscription is closed (and
// its buffer drained), or ctx is done. ok=false means the subscription is
// finished — check CloseReason, or ctx.Err() if the context fired.
func (s *Sub[T]) Next(ctx context.Context) (v T, ok bool) {
	for {
		s.mu.Lock()
		if len(s.buf) > 0 {
			v = s.buf[0]
			// Shift rather than re-slice so the backing array never pins
			// delivered values.
			copy(s.buf, s.buf[1:])
			s.buf = s.buf[:len(s.buf)-1]
			s.mu.Unlock()
			return v, true
		}
		if s.closed {
			s.mu.Unlock()
			return v, false
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-ctx.Done():
			return v, false
		}
	}
}

// TryNext pops a buffered value without blocking.
func (s *Sub[T]) TryNext() (v T, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return v, false
	}
	v = s.buf[0]
	copy(s.buf, s.buf[1:])
	s.buf = s.buf[:len(s.buf)-1]
	return v, true
}

// Close detaches the subscription from its hub with the given reason.
func (s *Sub[T]) Close(reason string) { s.hub.Unsubscribe(s, reason) }

// CloseReason is the terminal reason recorded at close ("" while open).
func (s *Sub[T]) CloseReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reason
}

// Len is the number of values currently buffered.
func (s *Sub[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

func (s *Sub[T]) close(reason string) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.reason = reason
	}
	s.mu.Unlock()
	s.notify()
}

// notify pokes the wake channel without blocking; capacity 1 makes it an
// edge trigger Next re-checks state after.
func (s *Sub[T]) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}
