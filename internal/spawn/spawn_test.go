package spawn

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// parked reports how many workers are idle in the pool.
func parked() int {
	mu.Lock()
	defer mu.Unlock()
	return len(idle)
}

// waitUntil polls cond until it holds, failing the test after a while.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

// TestGoNeverWaitsForAWorker starts far more jobs than the pool parks, all
// blocked on one barrier: every one of them must be running before any is
// released, so Go neither waits for a free worker nor queues a job behind a
// busy one. Once released, the pool keeps at most maxIdle of them.
func TestGoNeverWaitsForAWorker(t *testing.T) {
	const jobs = 500
	before := runtime.NumGoroutine() - parked()
	var started, finished sync.WaitGroup
	started.Add(jobs)
	finished.Add(jobs)
	barrier := make(chan struct{})
	for i := 0; i < jobs; i++ {
		Go(func() {
			started.Done()
			<-barrier
			finished.Done()
		})
	}
	allStarted := make(chan struct{})
	go func() { started.Wait(); close(allStarted) }()
	select {
	case <-allStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("not every job started while the others were blocked")
	}
	close(barrier)
	finished.Wait()
	waitUntil(t, "the pool is full", func() bool { return parked() == maxIdle })
	// Workers past the bound exit rather than park: what remains beyond the
	// goroutines that existed before is the parked pool.
	waitUntil(t, "surplus workers exit", func() bool { return runtime.NumGoroutine()-before <= maxIdle })
	if p := parked(); p > maxIdle {
		t.Fatalf("%d workers parked, bound %d", p, maxIdle)
	}
}

// TestGoOnWarmPoolAllocatesNothing: handing a prebuilt function to a parked
// worker costs no allocation.
func TestGoOnWarmPoolAllocatesNothing(t *testing.T) {
	done := make(chan struct{})
	f := func() { done <- struct{}{} }
	run := func() {
		p := parked()
		Go(f)
		<-done
		// The worker parks again just after f returns; the next Go must find it.
		for parked() < p {
			runtime.Gosched()
		}
	}
	Go(f)
	<-done
	waitUntil(t, "a worker parks", func() bool { return parked() > 0 })
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("Go on a warm pool allocates %.1f times per call, want 0", allocs)
	}
}
