package wiera

import (
	"sync"

	"repro/internal/wire"
)

// ErrChanging is returned to operations arriving while a policy change is
// in its prepare phase if the gate is shut down underneath them. The node
// is leaving the instance, so it declares wire.CodeUnavailable: a client
// tries the next node.
var ErrChanging error = changingError{}

type changingError struct{}

func (changingError) Error() string { return "wiera: node shutting down during policy change" }

// WireStatus implements wire.Coded.
func (changingError) WireStatus() (wire.Code, []byte) { return wire.CodeUnavailable, nil }

// opGate admits operations while open and blocks them during a policy
// change: freeze waits for in-flight operations to drain, then holds new
// arrivals until thaw. This implements Sec 3.3.2's "all new requests ...
// will be blocked and queued until the change takes effect".
type opGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frozen bool
	active int
	dead   bool
}

func newOpGate() *opGate {
	g := &opGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// enter admits one operation, blocking while the gate is frozen. parked
// reports whether it had to: an operation that found the gate open spent no
// time queued, whatever two clock readings around the call say.
func (g *opGate) enter() (parked bool, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.frozen && !g.dead {
		parked = true
		g.cond.Wait()
	}
	if g.dead {
		return parked, ErrChanging
	}
	g.active++
	return parked, nil
}

// exit retires one operation.
func (g *opGate) exit() {
	g.mu.Lock()
	g.active--
	if g.active == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// freeze blocks new operations and waits until in-flight ones finish.
func (g *opGate) freeze() {
	g.mu.Lock()
	g.frozen = true
	for g.active > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// thaw reopens the gate.
func (g *opGate) thaw() {
	g.mu.Lock()
	g.frozen = false
	g.cond.Broadcast()
	g.mu.Unlock()
}

// kill unblocks all waiters with an error (shutdown).
func (g *opGate) kill() {
	g.mu.Lock()
	g.dead = true
	g.cond.Broadcast()
	g.mu.Unlock()
}
