package tiera

import (
	"context"
	"fmt"
	"time"

	"repro/internal/policy"
)

func errNoPredicate(action string) error {
	return fmt.Errorf("tiera: %s outside an operation requires a what: predicate", action)
}

func errGrowArgs() error { return fmt.Errorf("tiera: grow requires by: <size>") }

func errNoTier(label string) error { return fmt.Errorf("tiera: no tier %q", label) }

func errUnsupported(action string) error {
	return fmt.Errorf("tiera: unsupported local action %q", action)
}

func errCannotAssign(path string) error {
	return fmt.Errorf("tiera: cannot assign %q outside an operation", path)
}

// timerExec executes policy actions fired outside a put operation (timer,
// filled, and object-monitor events): there is no current object, so every
// data-touching action must use a predicate selector.
type timerExec struct {
	inst *Instance
	// only, when set by an object monitor, narrows every selector to the
	// objects that triggered the event.
	only policy.Predicate
}

// selector returns the action's what: predicate, conjoined with only.
func (e *timerExec) selector(call *policy.ActionCall) (policy.Predicate, bool) {
	pred, ok := call.Pred("what")
	if !ok || e.only == nil {
		return pred, ok
	}
	return func(env policy.Env) (bool, error) {
		if ok, err := e.only(env); err != nil || !ok {
			return false, err
		}
		return pred(env)
	}, true
}

// Do implements policy.Executor.
func (e *timerExec) Do(call *policy.ActionCall) error {
	in := e.inst
	switch call.Name {
	case "copy", "move":
		to, err := call.StringArg("to")
		if err != nil {
			return err
		}
		pred, ok := e.selector(call)
		if !ok {
			return errNoPredicate(call.Name)
		}
		return in.transferMatching(context.Background(), pred, to, call.Name == "move", bandwidthOf(call))
	case "delete":
		pred, _ := e.selector(call)
		return in.deleteMatching(pred)
	case "compress", "encrypt":
		pred, ok := e.selector(call)
		if !ok {
			return errNoPredicate(call.Name)
		}
		return in.transformMatching(pred, call.Name == "encrypt")
	case "grow":
		what, err := call.StringArg("what")
		if err != nil {
			return err
		}
		by, ok := call.Arg("by")
		if !ok || by.Kind != policy.ValSize {
			return errGrowArgs()
		}
		t, exists := in.tiers[what]
		if !exists {
			return errNoTier(what)
		}
		t.Grow(by.Size)
		return nil
	default:
		return errUnsupported(call.Name)
	}
}

// Assign implements policy.Executor; nothing is assignable outside an op.
func (e *timerExec) Assign(path string, v policy.Value) error {
	return errCannotAssign(path)
}

// RunTimerEventsOnce fires every timer event's body once, regardless of
// period. Experiments and tests drive write-back deterministically with
// this; Start runs them on their declared periods.
func (in *Instance) RunTimerEventsOnce() error {
	for _, ev := range in.prog.ByKind(policy.KindTimer) {
		if err := ev.Execute(policy.NewMapEnv(), &timerExec{inst: in}); err != nil {
			return err
		}
	}
	return nil
}

// RunObjectMonitorsOnce evaluates every object-monitor event (cold-data
// checks): for each event, objects matching the event expression get the
// response body executed with the matching object preselected — the body's
// own predicates then refine the selection.
func (in *Instance) RunObjectMonitorsOnce() error {
	for _, ev := range in.prog.ByKind(policy.KindObjectMonitor) {
		// The event expression itself is a predicate over object attrs.
		expr := ev.Expr
		eventPred := func(env policy.Env) (bool, error) { return policy.EvalBool(expr, env) }
		matches, err := in.matchObjects(eventPred)
		if err != nil {
			return err
		}
		if len(matches) == 0 {
			continue
		}
		// Execute the body with every selector predicate conjoined with the
		// event predicate, so only objects that triggered the event are
		// touched (cold objects, not everything in tier1).
		exec := &timerExec{inst: in, only: eventPred}
		if err := ev.Execute(policy.NewMapEnv(), exec); err != nil {
			return err
		}
	}
	return nil
}

// checkFilled fires filled events whose tier crossed its threshold since
// the last check (edge-triggered so a backup policy runs once per
// crossing, not on every subsequent put).
func (in *Instance) checkFilled() {
	for _, ev := range in.prog.ByKind(policy.KindFilled) {
		t, ok := in.tiers[ev.Tier]
		if !ok {
			continue
		}
		filled := fillFraction(t)
		in.mu.Lock()
		was := in.fillLatched[ev.Tier]
		now := filled >= ev.FillFrac
		in.fillLatched[ev.Tier] = now
		in.mu.Unlock()
		if now && !was {
			_ = ev.Execute(policy.NewMapEnv(), &timerExec{inst: in})
		}
	}
}

// fillFraction returns used/capacity for any tier (0 when unlimited).
func fillFraction(t interface {
	Used() int64
	Capacity() int64
}) float64 {
	c := t.Capacity()
	if c == 0 {
		return 0
	}
	return float64(t.Used()) / float64(c)
}

// Start launches the background schedulers: one goroutine per timer event
// on its declared period and one scan loop for object monitors on the
// configured ScanInterval. Stop (or Close) terminates them.
func (in *Instance) Start() {
	in.mu.Lock()
	if in.started {
		in.mu.Unlock()
		return
	}
	in.started = true
	in.stopCh = make(chan struct{})
	stop := in.stopCh
	timers := in.prog.ByKind(policy.KindTimer)
	monitors := len(in.prog.ByKind(policy.KindObjectMonitor)) > 0
	in.loops.Add(len(timers))
	if monitors {
		in.loops.Add(1)
	}
	in.mu.Unlock()

	for _, ev := range timers {
		go in.timerLoop(ev, stop)
	}
	if monitors {
		go in.monitorLoop(stop)
	}
}

func (in *Instance) timerLoop(ev *policy.CompiledEvent, stop <-chan struct{}) {
	defer in.loops.Done()
	period := ev.Period
	if period <= 0 {
		period = time.Second
	}
	for {
		select {
		case <-stop:
			return
		case <-in.clk.After(period):
			_ = ev.Execute(policy.NewMapEnv(), &timerExec{inst: in})
		}
	}
}

func (in *Instance) monitorLoop(stop <-chan struct{}) {
	defer in.loops.Done()
	for {
		select {
		case <-stop:
			return
		case <-in.clk.After(in.scanInterval):
			_ = in.RunObjectMonitorsOnce()
		}
	}
}

// Stop terminates background schedulers and waits until they have
// returned, an event already executing included (idempotent). An event
// left running would keep moving data after its instance is gone.
func (in *Instance) Stop() {
	in.mu.Lock()
	if in.started {
		close(in.stopCh)
		in.started = false
	}
	in.mu.Unlock()
	in.loops.Wait()
}
