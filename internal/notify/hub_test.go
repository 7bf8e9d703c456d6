package notify

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestHubBroadcastOrder: values arrive to every subscriber in broadcast
// order, each exactly once when nobody stalls.
func TestHubBroadcastOrder(t *testing.T) {
	h := NewHub[int]()
	a := h.Subscribe(16)
	b := h.Subscribe(16)
	for i := 0; i < 10; i++ {
		delivered, coalesced := h.Broadcast(i)
		if delivered != 2 || coalesced != 0 {
			t.Fatalf("Broadcast(%d): delivered=%d coalesced=%d", i, delivered, coalesced)
		}
	}
	for _, s := range []*Sub[int]{a, b} {
		for i := 0; i < 10; i++ {
			v, ok := s.TryNext()
			if !ok || v != i {
				t.Fatalf("got (%d, %v), want (%d, true)", v, ok, i)
			}
		}
		if _, ok := s.TryNext(); ok {
			t.Fatal("queue should be empty")
		}
	}
}

// TestHubCoalesceLatest: a full queue replaces its newest element, so a
// stalled consumer keeps the oldest undelivered values and the most recent
// one — intermediates are the casualties, never the head of line.
func TestHubCoalesceLatest(t *testing.T) {
	h := NewHub[int]()
	s := h.Subscribe(3)
	for i := 0; i < 10; i++ {
		_, ok := s.Push(i)
		if !ok {
			t.Fatalf("Push(%d) reported closed", i)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("queue holds %d values, cap is 3", s.Len())
	}
	want := []int{0, 1, 9} // 2..8 coalesced away; 9 is the latest
	for _, w := range want {
		v, ok := s.TryNext()
		if !ok || v != w {
			t.Fatalf("got (%d, %v), want (%d, true)", v, ok, w)
		}
	}
}

// TestHubCoalesceCounts: Broadcast reports coalescing per subscriber — a
// stalled subscriber coalesces while a drained one keeps receiving.
func TestHubCoalesceCounts(t *testing.T) {
	h := NewHub[int]()
	stalled := h.Subscribe(1)
	_ = stalled
	healthy := h.Subscribe(8)
	for i := 0; i < 5; i++ {
		delivered, coalesced := h.Broadcast(i)
		if delivered != 2 {
			t.Fatalf("Broadcast(%d): delivered=%d", i, delivered)
		}
		wantCo := 0
		if i > 0 {
			wantCo = 1 // stalled's single slot already full
		}
		if coalesced != wantCo {
			t.Fatalf("Broadcast(%d): coalesced=%d, want %d", i, coalesced, wantCo)
		}
		if _, ok := healthy.TryNext(); !ok {
			t.Fatalf("healthy subscriber starved at %d", i)
		}
	}
	if v, _ := stalled.TryNext(); v != 4 {
		t.Fatalf("stalled subscriber's slot holds %d, want the latest (4)", v)
	}
}

// parkCtx is a context whose Done closes parked on its first call. Next
// evaluates ctx.Done() only in the select where it parks, so a receive on
// parked means the reader found its buffer empty and is about to block.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// TestHubNextBlocksAndWakes: Next parks until a Push lands, and a
// cancelled context unblocks it with ok=false.
func TestHubNextBlocksAndWakes(t *testing.T) {
	h := NewHub[string]()
	s := h.Subscribe(0)
	got := make(chan string, 1)
	pc := &parkCtx{Context: context.Background(), parked: make(chan struct{})}
	go func() {
		v, ok := s.Next(pc)
		if ok {
			got <- v
		}
	}()
	<-pc.parked
	h.Broadcast("wake")
	select {
	case v := <-got:
		if v != "wake" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next never woke")
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		if _, ok := s.Next(ctx); ok {
			t.Error("Next returned a value after cancel")
		}
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Next ignored context cancellation")
	}
}

// TestHubCloseDrainsBuffered: closing delivers what is already buffered
// before Next reports the terminal state, and the close reason survives.
func TestHubCloseDrainsBuffered(t *testing.T) {
	h := NewHub[int]()
	s := h.Subscribe(4)
	h.Broadcast(1)
	h.Broadcast(2)
	h.CloseAll("drain")
	if h.Active() != 0 {
		t.Fatalf("Active=%d after CloseAll", h.Active())
	}
	ctx := context.Background()
	for _, want := range []int{1, 2} {
		v, ok := s.Next(ctx)
		if !ok || v != want {
			t.Fatalf("got (%d, %v), want (%d, true)", v, ok, want)
		}
	}
	if _, ok := s.Next(ctx); ok {
		t.Fatal("Next kept yielding after the buffer drained")
	}
	if s.CloseReason() != "drain" {
		t.Fatalf("CloseReason=%q", s.CloseReason())
	}
	if _, ok := s.Push(9); ok {
		t.Fatal("Push succeeded on a closed subscription")
	}
	// A closed hub hands out already-closed subscriptions with its reason.
	late := h.Subscribe(1)
	if late.CloseReason() != "drain" {
		t.Fatalf("late subscribe: reason=%q, want drain", late.CloseReason())
	}
}

// TestHubUnsubscribeIdempotent: double close and close-of-other-hub's-sub
// are harmless, and unsubscribing one leaves the rest attached.
func TestHubUnsubscribeIdempotent(t *testing.T) {
	h := NewHub[int]()
	a := h.Subscribe(2)
	b := h.Subscribe(2)
	a.Close("unsubscribe")
	a.Close("second close must not overwrite")
	if a.CloseReason() != "unsubscribe" {
		t.Fatalf("CloseReason=%q", a.CloseReason())
	}
	if h.Active() != 1 {
		t.Fatalf("Active=%d", h.Active())
	}
	if delivered, _ := h.Broadcast(7); delivered != 1 {
		t.Fatalf("delivered=%d", delivered)
	}
	if v, ok := b.TryNext(); !ok || v != 7 {
		t.Fatalf("b got (%d, %v)", v, ok)
	}
}

// TestHubConcurrentStorm hammers one hub with concurrent broadcasters,
// subscribers that come and go, and consumers mid-read — the -race anchor
// for the fan-out layer. Every consumer must observe values in
// nondecreasing order (coalescing may skip, never reorder).
func TestHubConcurrentStorm(t *testing.T) {
	h := NewHub[int]()
	const readers = 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := h.Subscribe(2 + r%3)
			defer s.Close("unsubscribe")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			last := -1
			for {
				v, ok := s.Next(ctx)
				if !ok {
					return
				}
				if v < last {
					t.Errorf("reader %d: value %d after %d", r, v, last)
					return
				}
				last = v
			}
		}(r)
	}
	for i := 0; i < 2000; i++ {
		h.Broadcast(i)
	}
	h.CloseAll("drain")
	wg.Wait()
}
