// Package spawn runs short-lived units of concurrency on warm, reused
// goroutines. A goroutine started with `go` begins on a small stack, and
// when the work it runs goes deep — a fabric RPC runs the callee's handler,
// policy engine and tier inline — it regrows that stack by copying it, two
// or three times. On a per-operation goroutine that copying happens on every
// operation. Go instead hands the function to the goroutine that most
// recently finished one, whose stack has already grown to what such work
// needs.
package spawn

import "sync"

// maxIdle bounds the parked workers. A burst past it starts goroutines that
// exit after their job instead of parking, so the pool keeps at most this
// many stacks alive, and the ones it keeps are the most recently used: a
// stack parked for long has been shrunk by the garbage collector and would
// be regrown on its next job.
const maxIdle = 64

// worker is one goroutine of the pool. jobs has room for the one function
// Go hands it, so Go never waits for the worker to reach its receive.
type worker struct{ jobs chan func() }

var (
	mu   sync.Mutex
	idle = make([]*worker, 0, maxIdle) // a stack: the last one parked is reused first
)

// Go runs f on a goroutine of its own: the most recently parked worker when
// one is idle, a new goroutine otherwise. It never blocks and never queues f
// behind a job still running, so jobs that wait on each other cannot
// deadlock.
func Go(f func()) {
	mu.Lock()
	if n := len(idle); n > 0 {
		w := idle[n-1]
		idle = idle[:n-1]
		mu.Unlock()
		w.jobs <- f
		return
	}
	mu.Unlock()
	go run(&worker{jobs: make(chan func(), 1)}, f)
}

// run executes f, then parks w for its next job, unless maxIdle workers are
// parked already; then the goroutine exits.
func run(w *worker, f func()) {
	for {
		f()
		mu.Lock()
		if len(idle) == maxIdle {
			mu.Unlock()
			return
		}
		idle = append(idle, w)
		mu.Unlock()
		f = <-w.jobs
	}
}
