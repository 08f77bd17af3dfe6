package wiera

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/flight"
	"repro/internal/object"
	"repro/internal/policy"
	"repro/internal/spawn"
)

// globalPutExec executes a global policy's insert-event responses for one
// put operation: lock/release, store to local_instance, synchronous copy or
// lazy queue to all_regions, and forward to the primary (paper Figs 3-4).
// ctx carries the put's trace span through forwards and fan-outs (the
// policy.Executor interface has no ctx parameter, so it rides on the exec);
// env is what the insert events read.
type globalPutExec struct {
	ctx  context.Context
	n    *Node
	key  string
	data []byte
	tags []string
	env  policy.OpEnv

	// meta is the put's result once hasMeta is set: the version stored
	// locally, or the primary's answer to a forward.
	meta      object.Meta
	hasMeta   bool
	lockHeld  bool
	forwarded bool
}

// Do implements policy.Executor.
func (e *globalPutExec) Do(call *policy.ActionCall) error {
	switch call.Name {
	case "lock":
		if e.n.locks == nil {
			return errors.New("wiera: no coordination service configured for lock")
		}
		lockStart := e.n.clk.Now()
		if err := e.n.locks.Lock(e.ctx, e.key, lockWait); err != nil {
			return err
		}
		flight.FromContext(e.ctx).AddHop(flight.Hop{
			Kind: flight.HopLock, Name: e.key, Duration: e.n.clk.Since(lockStart),
		})
		e.lockHeld = true
		return nil
	case "release":
		if e.n.locks == nil {
			return errors.New("wiera: no coordination service configured for release")
		}
		e.lockHeld = false
		// Release is asynchronous: the update is already durable everywhere
		// by this point, and coordination clients pipeline session
		// operations, so the put need not pay the release round trip (the
		// paper's ~400 ms multi-primary put pays lock + broadcast only).
		key := e.key
		n := e.n
		spawn.Go(func() { n.releaseLock(key) })
		return nil
	case "store":
		to, err := call.StringArg("to")
		if err != nil {
			return err
		}
		if to != "local_instance" && to != e.n.name {
			return fmt.Errorf("wiera: global store targets local_instance, got %q", to)
		}
		m, err := e.n.local.PutTagged(e.ctx, e.key, e.data, e.tags)
		if err != nil {
			return err
		}
		e.meta, e.hasMeta = m, true
		return nil
	case "copy":
		return e.distribute(call, true)
	case "queue":
		return e.distribute(call, false)
	case "forward":
		to, err := call.StringArg("to")
		if err != nil {
			return err
		}
		target, err := e.n.resolveTarget(to)
		if err != nil {
			return err
		}
		var resp PutResponse
		req := PutRequest{Key: e.key, Data: e.data, Tags: e.tags, From: e.n.name}
		if err := e.n.callPeer(e.ctx, target, MethodForwardPut, req, &resp); err != nil {
			return err
		}
		e.meta, e.hasMeta = resp.Meta, true
		e.forwarded = true
		return nil
	case "stripe":
		// Erasure-coded distribution with a per-object replication/EC
		// chooser (internal/ec); replaces store+copy/queue entirely.
		return e.n.ecm.stripe(e, call)
	case "change_policy":
		return doChangePolicy(e.n, call)
	default:
		return fmt.Errorf("wiera: unsupported global action %q", call.Name)
	}
}

// distribute fans the stored version out to all peers, synchronously
// (copy) or through the background queue (queue).
func (e *globalPutExec) distribute(call *policy.ActionCall, sync bool) error {
	if !e.hasMeta {
		return errors.New("wiera: copy/queue before store in policy body")
	}
	to, err := call.StringArg("to")
	if err != nil {
		return err
	}
	msg := UpdateMsg{Meta: e.meta, Data: e.data}
	if to == "all_regions" {
		if sync {
			return e.n.fanOutSync(e.ctx, msg)
		}
		e.n.queue.out.Queue(msg)
		return nil
	}
	target, err := e.n.resolveTarget(to)
	if err != nil {
		return err
	}
	if !sync {
		// A single-target lazy update ships at once, outliving the put's
		// span, and waits in the target's outbox while it is unreachable.
		e.n.queue.push(target, msg)
		return nil
	}
	err = e.n.callPeer(e.ctx, target, MethodApplyUpdate, msg, nil)
	if err != nil {
		e.n.queue.out.Hint(target, msg)
	}
	return err
}

// Assign implements policy.Executor (no assignable attributes at the
// global level yet).
func (e *globalPutExec) Assign(path string, v policy.Value) error {
	return fmt.Errorf("wiera: cannot assign %q in a global policy", path)
}

// releaseLockIfHeld frees the global lock after a mid-body failure so a
// failed put cannot deadlock the key.
func (e *globalPutExec) releaseLockIfHeld() {
	if e.lockHeld && e.n.locks != nil {
		e.n.releaseLock(e.key)
		e.lockHeld = false
	}
}

// releaseLock frees key's global lock. A release that fails is not retried:
// the node's coordination session never expires (NewNode) and holds are
// counted, so the key stays locked for every other region and their puts
// fail after lockWait. The failure is counted
// (wiera_lock_release_failures_total) and journaled with the key, so an
// operator can find which key is stuck.
func (n *Node) releaseLock(key string) {
	err := n.locks.Unlock(context.Background(), key)
	if err == nil {
		return
	}
	n.releaseFailures.Inc()
	n.fabric.Events().Record("lock.release_failed", n.name,
		fmt.Sprintf("wiera: release of the lock on key %q failed: %v", key, err),
		map[string]string{"key": key})
}

// globalGetExec executes get-event responses: forwarding reads to another
// instance (Sec 5.4's remote-memory reads). ctx carries the get's trace
// span through the forward; env is what the get events read.
type globalGetExec struct {
	ctx  context.Context
	n    *Node
	key  string
	resp *GetResponse
	env  policy.OpEnv
}

// Do implements policy.Executor.
func (e *globalGetExec) Do(call *policy.ActionCall) error {
	switch call.Name {
	case "forward":
		to, err := call.StringArg("to")
		if err != nil {
			return err
		}
		target, err := e.n.resolveTarget(to)
		if err != nil {
			return err
		}
		if target == e.n.name {
			data, meta, err := e.n.local.Get(e.ctx, e.key)
			if err != nil {
				return err
			}
			e.resp = &GetResponse{Data: data, Meta: meta}
			return nil
		}
		var resp GetResponse
		if err := e.n.callPeer(e.ctx, target, MethodForwardGet, GetRequest{Key: e.key}, &resp); err != nil {
			return err
		}
		e.resp = &resp
		return nil
	case "change_policy":
		return doChangePolicy(e.n, call)
	default:
		return fmt.Errorf("wiera: unsupported get action %q", call.Name)
	}
}

// Assign implements policy.Executor.
func (e *globalGetExec) Assign(path string, v policy.Value) error {
	return fmt.Errorf("wiera: cannot assign %q in a get policy", path)
}

// doChangePolicy translates a change_policy action into a server request.
func doChangePolicy(n *Node, call *policy.ActionCall) error {
	what, err := call.StringArg("what")
	if err != nil {
		return err
	}
	to, err := call.StringArg("to")
	if err != nil {
		return err
	}
	return n.requestPolicyChangeVia(what, to, "policy")
}
