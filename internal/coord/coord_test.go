package coord

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/simnet"
	"repro/internal/transport"
)

func newServer() (*Server, clock.Clock) {
	clk := clock.NewScaled(10000)
	return NewServer(clk), clk
}

func TestAcquireReleaseBasic(t *testing.T) {
	s, _ := newServer()
	id := s.CreateSession(longTTL)
	granted, err := s.Acquire(id, "k", 0)
	if err != nil || !granted {
		t.Fatalf("Acquire = %v, %v", granted, err)
	}
	if s.Holder("k") != id {
		t.Fatalf("Holder = %d", s.Holder("k"))
	}
	if err := s.Release(id, "k"); err != nil {
		t.Fatal(err)
	}
	if s.Holder("k") != 0 {
		t.Fatal("lock should be free")
	}
}

func TestTryLockContention(t *testing.T) {
	s, _ := newServer()
	a := s.CreateSession(longTTL)
	b := s.CreateSession(longTTL)
	if g, _ := s.Acquire(a, "k", 0); !g {
		t.Fatal("first acquire should succeed")
	}
	if g, _ := s.Acquire(b, "k", 0); g {
		t.Fatal("second try-lock should fail")
	}
	// Re-entrant: holder can re-acquire.
	if g, _ := s.Acquire(a, "k", 0); !g {
		t.Fatal("re-entrant acquire should succeed")
	}
}

func TestBlockingAcquireFIFO(t *testing.T) {
	s, _ := newServer()
	holder := s.CreateSession(longTTL)
	s.Acquire(holder, "k", 0)

	var mu sync.Mutex
	var order []int64
	var wg sync.WaitGroup
	sessions := []int64{s.CreateSession(longTTL), s.CreateSession(longTTL), s.CreateSession(longTTL)}
	for i, id := range sessions {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			g, err := s.Acquire(id, "k", time.Hour)
			if err != nil || !g {
				t.Errorf("blocking acquire: %v, %v", g, err)
				return
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			s.Release(id, "k")
		}(id)
		// Give each goroutine time to enqueue so FIFO order is deterministic.
		waitForWaiterCount(t, s, "k", i+1)
	}
	s.Release(holder, "k")
	wg.Wait()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i, id := range sessions {
		if order[i] != id {
			t.Fatalf("FIFO violated: order = %v, sessions = %v", order, sessions)
		}
	}
}

// waitForWaiterCount waits until key has n queued waiters.
func waitForWaiterCount(t *testing.T, s *Server, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		count := 0
		if ls := s.locks[key]; ls != nil {
			count = len(ls.waiters)
		}
		s.mu.Unlock()
		if count >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d waiters on %q", n, key)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAcquireTimeout(t *testing.T) {
	s, _ := newServer()
	a := s.CreateSession(longTTL)
	b := s.CreateSession(longTTL)
	s.Acquire(a, "k", 0)
	_, err := s.Acquire(b, "k", 10*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	// After the holder releases, an abandoned waiter must be skipped and the
	// lock freed.
	s.Release(a, "k")
	if s.Holder("k") != 0 {
		t.Fatal("abandoned waiter received the lock")
	}
}

func TestSessionExpiryReleasesLocks(t *testing.T) {
	clk := clock.NewSim(time.Time{})
	s := NewServer(clk)
	a := s.CreateSession(10 * time.Second)
	b := s.CreateSession(time.Hour)
	s.Acquire(a, "k", 0)
	clk.Advance(11 * time.Second)
	s.ExpireSessions()
	if s.SessionCount() != 1 {
		t.Fatalf("SessionCount = %d", s.SessionCount())
	}
	// b can now take the lock.
	if g, err := s.Acquire(b, "k", 0); err != nil || !g {
		t.Fatalf("acquire after expiry = %v, %v", g, err)
	}
}

func TestKeepAliveExtendsLease(t *testing.T) {
	clk := clock.NewSim(time.Time{})
	s := NewServer(clk)
	a := s.CreateSession(10 * time.Second)
	clk.Advance(8 * time.Second)
	if err := s.KeepAlive(a); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	if _, err := s.Acquire(a, "k", 0); err != nil {
		t.Fatalf("session should still be alive: %v", err)
	}
	clk.Advance(11 * time.Second)
	if err := s.KeepAlive(a); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
}

func TestReleaseErrors(t *testing.T) {
	s, _ := newServer()
	a := s.CreateSession(longTTL)
	if err := s.Release(a, "nothing"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Release(999, "k"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Acquire(999, "k", 0); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseSessionReleasesAndPassesLock(t *testing.T) {
	s, _ := newServer()
	a := s.CreateSession(longTTL)
	b := s.CreateSession(longTTL)
	s.Acquire(a, "k1", 0)
	s.Acquire(a, "k2", 0)
	done := make(chan struct{})
	go func() {
		s.Acquire(b, "k1", time.Hour)
		close(done)
	}()
	waitForWaiterCount(t, s, "k1", 1)
	s.CloseSession(a)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not granted after CloseSession")
	}
	if s.Holder("k2") != 0 {
		t.Fatal("k2 should be free after CloseSession")
	}
	s.CloseSession(a) // idempotent
}

// Property: mutual exclusion — under concurrent contenders, at most one
// session observes itself as holder at a time.
func TestMutualExclusionProperty(t *testing.T) {
	s, _ := newServer()
	var inside int32
	var violation int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		id := s.CreateSession(longTTL)
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				g, err := s.Acquire(id, "crit", time.Hour)
				if err != nil || !g {
					t.Errorf("acquire: %v %v", g, err)
					return
				}
				mu.Lock()
				inside++
				if inside > 1 {
					violation++
				}
				mu.Unlock()
				mu.Lock()
				inside--
				mu.Unlock()
				if err := s.Release(id, "crit"); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if violation > 0 {
		t.Fatalf("%d mutual exclusion violations", violation)
	}
}

// Property (testing/quick): for any interleaving seed of try-locks, a key
// is held by at most one session and Holder agrees with grants.
func TestTryLockConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s, _ := newServer()
		ids := []int64{s.CreateSession(longTTL), s.CreateSession(longTTL), s.CreateSession(longTTL)}
		holders := map[string]int64{}
		holds := map[string]int{} // the holder's unreleased acquires
		for _, op := range ops {
			// op%6 picks the session and acquire/release; the key comes
			// from the bits above it, so a session releases keys it holds.
			id := ids[int(op)%3]
			key := fmt.Sprintf("k%d", (op/6)%2)
			if op%2 == 0 {
				g, err := s.Acquire(id, key, 0)
				if err != nil {
					return false
				}
				cur := holders[key]
				if g && cur != 0 && cur != id {
					return false // granted while someone else held it
				}
				if g {
					holders[key] = id
					holds[key]++
				}
				if !g && cur == 0 {
					return false // denied though free
				}
			} else if holders[key] == id {
				if s.Release(id, key) != nil {
					return false
				}
				if holds[key]--; holds[key] == 0 {
					holders[key] = 0
				}
			}
			if s.Holder(key) != holders[key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReentrantAcquireReleasedOncePerAcquire: a session that acquired a key
// twice keeps it until its second release, as a Curator InterProcessMutex
// does. A node's asynchronous release of one put must not free the lock
// while the same node's next put on that key is still fanning out.
func TestReentrantAcquireReleasedOncePerAcquire(t *testing.T) {
	s, _ := newServer()
	a := s.CreateSession(longTTL)
	b := s.CreateSession(longTTL)
	for i := 0; i < 2; i++ {
		if g, err := s.Acquire(a, "k", 0); err != nil || !g {
			t.Fatalf("acquire %d = %v, %v", i+1, g, err)
		}
	}
	if err := s.Release(a, "k"); err != nil {
		t.Fatal(err)
	}
	if g, _ := s.Acquire(b, "k", 0); g {
		t.Fatal("try-lock granted to another session while a re-entrant hold remains")
	}
	if s.Holder("k") != a {
		t.Fatalf("Holder = %d, want %d", s.Holder("k"), a)
	}
	if err := s.Release(a, "k"); err != nil {
		t.Fatal(err)
	}
	if g, _ := s.Acquire(b, "k", 0); !g {
		t.Fatal("try-lock denied after the last hold was released")
	}
	if err := s.Release(a, "k"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("release past the last hold: err = %v, want ErrNotHeld", err)
	}
}

// TestCloseSessionDropsEveryHold: closing a session frees a key it acquired
// twice and never released, and the next holder starts from one hold.
func TestCloseSessionDropsEveryHold(t *testing.T) {
	s, _ := newServer()
	a := s.CreateSession(longTTL)
	b := s.CreateSession(longTTL)
	s.Acquire(a, "k", 0)
	s.Acquire(a, "k", 0)
	s.CloseSession(a)
	if g, _ := s.Acquire(b, "k", 0); !g {
		t.Fatal("try-lock denied after the holder's session closed")
	}
	if err := s.Release(b, "k"); err != nil {
		t.Fatal(err)
	}
	if s.Holder("k") != 0 {
		t.Fatal("one release did not free a lock acquired once")
	}
}

func TestClientServerOverFabric(t *testing.T) {
	clk := clock.NewScaled(10000)
	fab := transport.NewFabric(simnet.New(clk))
	defer fab.Close()
	srv := NewServer(clk)
	ep, err := fab.NewEndpoint("zk", simnet.USEast)
	if err != nil {
		t.Fatal(err)
	}
	ep.Serve(srv.Handler())

	cliEP, err := fab.NewEndpoint("client-asia", simnet.AsiaEast)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(cliEP, "zk", longTTL)
	if err != nil {
		t.Fatal(err)
	}
	if cli.SessionID() == 0 {
		t.Fatal("no session id")
	}
	if err := cli.Lock(context.Background(), "obj-1", time.Second); err != nil {
		t.Fatal(err)
	}
	// A second client cannot take it.
	cliEP2, _ := fab.NewEndpoint("client-eu", simnet.EUWest)
	cli2, err := NewClient(cliEP2, "zk", longTTL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cli2.TryLock(context.Background(), "obj-1")
	if err != nil || got {
		t.Fatalf("TryLock = %v, %v", got, err)
	}
	if err := cli.Unlock(context.Background(), "obj-1"); err != nil {
		t.Fatal(err)
	}
	got, err = cli2.TryLock(context.Background(), "obj-1")
	if err != nil || !got {
		t.Fatalf("TryLock after unlock = %v, %v", got, err)
	}
	if err := cli2.KeepAlive(); err != nil {
		t.Fatal(err)
	}
	if err := cli2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("SessionCount = %d after closing all", srv.SessionCount())
	}
}

func TestClientLockTimeoutOverFabric(t *testing.T) {
	clk := clock.NewScaled(10000)
	fab := transport.NewFabric(simnet.New(clk))
	defer fab.Close()
	srv := NewServer(clk)
	ep, _ := fab.NewEndpoint("zk", simnet.USEast)
	ep.Serve(srv.Handler())
	e1, _ := fab.NewEndpoint("c1", simnet.USEast)
	e2, _ := fab.NewEndpoint("c2", simnet.USEast)
	c1, err := NewClient(e1, "zk", longTTL)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(e2, "zk", longTTL)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Lock(context.Background(), "k", time.Second); err != nil {
		t.Fatal(err)
	}
	err = c2.Lock(context.Background(), "k", 50*time.Millisecond)
	if err == nil {
		t.Fatal("lock should have timed out")
	}
	if err := c2.Unlock(context.Background(), "k"); err == nil {
		t.Fatal("unlock of unheld lock should fail")
	}
}

func TestHandlerUnknownMethod(t *testing.T) {
	s, _ := newServer()
	if _, err := s.Handler()(context.Background(), "bogus", nil); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestHandlerDecodeErrors(t *testing.T) {
	s, _ := newServer()
	h := s.Handler()
	for _, m := range []string{methodCreateSession, methodKeepAlive, methodCloseSession, methodAcquire, methodRelease} {
		if _, err := h(context.Background(), m, []byte("junk")); err == nil {
			t.Fatalf("method %s accepted junk payload", m)
		}
	}
}

// longTTL keeps sessions alive for the whole test even on heavily
// compressed Scaled clocks (a 1-minute TTL elapses in ~6ms of real time at
// factor 10000).
const longTTL = 100000 * time.Hour
