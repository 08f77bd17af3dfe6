// Package coord is the repository's ZooKeeper/Curator substitute: a
// centralized coordination service providing sessions with lease expiry and
// per-key FIFO mutual-exclusion locks. Wiera's MultiPrimariesConsistency
// policy acquires a global per-object lock here before fanning out updates
// (paper Sec 4.2). The service runs as one endpoint on the RPC fabric — in
// the paper's deployment ZooKeeper runs alongside Wiera in US-East, so lock
// operations from other regions pay WAN latency, which is a significant
// share of the ~400 ms multi-primary put cost in Fig 7.
package coord

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/watch"
)

// Coordination errors.
var (
	// ErrNoSession reports an unknown or expired session.
	ErrNoSession = errors.New("coord: no such session (expired?)")
	// ErrNotHeld reports releasing a lock the session does not hold.
	ErrNotHeld = errors.New("coord: lock not held by session")
	// ErrTimeout reports an acquire that waited past its deadline.
	ErrTimeout = errors.New("coord: acquire timed out")
)

// RPC method names served by the coordination server.
const (
	methodCreateSession = "coord.createSession"
	methodKeepAlive     = "coord.keepAlive"
	methodCloseSession  = "coord.closeSession"
	methodAcquire       = "coord.acquire"
	methodRelease       = "coord.release"
)

type createSessionReq struct{ TTLMillis int64 }
type createSessionResp struct{ SessionID int64 }
type keepAliveReq struct{ SessionID int64 }
type closeSessionReq struct{ SessionID int64 }
type acquireReq struct {
	SessionID  int64
	Key        string
	WaitMillis int64 // 0 = try-lock
}
type acquireResp struct{ Granted bool }
type releaseReq struct {
	SessionID int64
	Key       string
}
type empty struct{}

// Server is the coordination service state machine.
type Server struct {
	clk     clock.Clock
	journal *watch.Journal // optional: records ring.epoch publications

	mu       sync.Mutex
	nextID   int64
	sessions map[int64]*session
	locks    map[string]*lockState
	rings    map[string]*ring.Map // authoritative shard maps by instance id
}

// AttachJournal makes the server record every ring publication as a
// ring.epoch event — the authoritative membership-change history of the
// deployment. Call before serving.
func (s *Server) AttachJournal(j *watch.Journal) { s.journal = j }

type session struct {
	id       int64
	ttl      time.Duration
	deadline time.Time
	held     map[string]bool
}

type lockState struct {
	holder  int64 // session id, 0 = free
	holds   int   // the holder's acquires not yet released
	waiters []*waiter
}

type waiter struct {
	sessionID int64
	granted   chan struct{}
	abandoned bool
}

// NewServer returns a coordination server on clk.
func NewServer(clk clock.Clock) *Server {
	return &Server{
		clk:      clk,
		sessions: make(map[int64]*session),
		locks:    make(map[string]*lockState),
	}
}

// Handler returns the transport.Handler serving the coordination protocol;
// attach it to a fabric endpoint or TCP server.
func (s *Server) Handler() transport.Handler {
	return func(_ context.Context, method string, payload []byte) ([]byte, error) {
		switch method {
		case methodCreateSession:
			var req createSessionReq
			if err := transport.Decode(payload, &req); err != nil {
				return nil, err
			}
			id := s.CreateSession(time.Duration(req.TTLMillis) * time.Millisecond)
			return transport.Encode(createSessionResp{SessionID: id})
		case methodKeepAlive:
			var req keepAliveReq
			if err := transport.Decode(payload, &req); err != nil {
				return nil, err
			}
			if err := s.KeepAlive(req.SessionID); err != nil {
				return nil, err
			}
			return transport.Encode(empty{})
		case methodCloseSession:
			var req closeSessionReq
			if err := transport.Decode(payload, &req); err != nil {
				return nil, err
			}
			s.CloseSession(req.SessionID)
			return transport.Encode(empty{})
		case methodAcquire:
			var req acquireReq
			if err := transport.Decode(payload, &req); err != nil {
				return nil, err
			}
			granted, err := s.Acquire(req.SessionID, req.Key, time.Duration(req.WaitMillis)*time.Millisecond)
			if err != nil {
				return nil, err
			}
			return transport.Encode(acquireResp{Granted: granted})
		case methodRelease:
			var req releaseReq
			if err := transport.Decode(payload, &req); err != nil {
				return nil, err
			}
			if err := s.Release(req.SessionID, req.Key); err != nil {
				return nil, err
			}
			return transport.Encode(empty{})
		case methodRingPublish:
			var req ringPublishReq
			if err := transport.Decode(payload, &req); err != nil {
				return nil, err
			}
			epoch, err := s.PublishRing(req.Name, req.Map)
			if err != nil {
				return nil, err
			}
			return transport.Encode(ringPublishResp{Epoch: epoch})
		case methodRingFetch:
			var req ringFetchReq
			if err := transport.Decode(payload, &req); err != nil {
				return nil, err
			}
			return transport.Encode(ringFetchResp{Map: s.FetchRing(req.Name)})
		default:
			return nil, fmt.Errorf("coord: unknown method %q", method)
		}
	}
}

// CreateSession registers a session with the given lease TTL and returns
// its id.
func (s *Server) CreateSession(ttl time.Duration) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	s.nextID++
	id := s.nextID
	s.sessions[id] = &session{
		id: id, ttl: ttl, deadline: s.clk.Now().Add(ttl),
		held: make(map[string]bool),
	}
	return id
}

// KeepAlive renews a session's lease.
func (s *Server) KeepAlive(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	sess, ok := s.sessions[id]
	if !ok {
		return ErrNoSession
	}
	sess.deadline = s.clk.Now().Add(sess.ttl)
	return nil
}

// CloseSession ends a session, releasing all its locks. Closing an unknown
// session is a no-op.
func (s *Server) CloseSession(id int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[id]; ok {
		s.releaseAllLocked(sess)
		delete(s.sessions, id)
	}
}

// Acquire obtains the lock for key on behalf of session id. With wait == 0
// it is a try-lock. With wait > 0 it blocks up to wait for the lock,
// joining a FIFO queue. It returns whether the lock was granted.
func (s *Server) Acquire(id int64, key string, wait time.Duration) (bool, error) {
	s.mu.Lock()
	s.expireLocked()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return false, ErrNoSession
	}
	ls := s.locks[key]
	if ls == nil {
		ls = &lockState{}
		s.locks[key] = ls
	}
	if ls.holder == 0 {
		ls.holder, ls.holds = id, 1
		sess.held[key] = true
		s.mu.Unlock()
		return true, nil
	}
	if ls.holder == id {
		// Re-entrant grant: the session already holds it, and must release
		// it once per acquire (Curator's InterProcessMutex semantics).
		ls.holds++
		s.mu.Unlock()
		return true, nil
	}
	if wait <= 0 {
		s.mu.Unlock()
		return false, nil
	}
	w := &waiter{sessionID: id, granted: make(chan struct{})}
	ls.waiters = append(ls.waiters, w)
	s.mu.Unlock()

	select {
	case <-w.granted:
		return true, nil
	case <-s.clk.After(wait):
		s.mu.Lock()
		defer s.mu.Unlock()
		select {
		case <-w.granted:
			// Granted while we were timing out; keep the lock.
			return true, nil
		default:
		}
		w.abandoned = true
		return false, ErrTimeout
	}
}

// Release gives up one of session id's holds on key; the last one hands the
// lock to the next live waiter.
func (s *Server) Release(id int64, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	sess, ok := s.sessions[id]
	if !ok {
		return ErrNoSession
	}
	if !sess.held[key] {
		return fmt.Errorf("%w: session %d key %q", ErrNotHeld, id, key)
	}
	if ls := s.locks[key]; ls.holds > 1 {
		ls.holds--
		return nil
	}
	delete(sess.held, key)
	s.passLockLocked(key)
	return nil
}

// Holder returns the session currently holding key (0 = free).
func (s *Server) Holder(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if ls := s.locks[key]; ls != nil {
		return ls.holder
	}
	return 0
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return len(s.sessions)
}

// ExpireSessions forces a lease-expiry sweep (tests and maintenance).
func (s *Server) ExpireSessions() {
	s.mu.Lock()
	s.expireLocked()
	s.mu.Unlock()
}

func (s *Server) expireLocked() {
	now := s.clk.Now()
	for id, sess := range s.sessions {
		if now.After(sess.deadline) {
			s.releaseAllLocked(sess)
			delete(s.sessions, id)
		}
	}
}

func (s *Server) releaseAllLocked(sess *session) {
	for key := range sess.held {
		s.passLockLocked(key)
	}
	sess.held = make(map[string]bool)
}

// passLockLocked drops every hold on key and hands the lock to the next
// waiter whose session is still alive, or frees it.
func (s *Server) passLockLocked(key string) {
	ls := s.locks[key]
	if ls == nil {
		return
	}
	ls.holder, ls.holds = 0, 0
	for len(ls.waiters) > 0 {
		w := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		if w.abandoned {
			continue
		}
		next, alive := s.sessions[w.sessionID]
		if !alive {
			continue
		}
		ls.holder, ls.holds = w.sessionID, 1
		next.held[key] = true
		close(w.granted)
		return
	}
	if ls.holder == 0 && len(ls.waiters) == 0 {
		delete(s.locks, key)
	}
}

// Client is a session-holding client of a coordination server reached
// through any transport.Caller.
type Client struct {
	caller    transport.Caller
	serverDst string
	sessionID int64
}

// NewClient creates a session with the given TTL on the server reachable as
// serverDst via caller.
func NewClient(caller transport.Caller, serverDst string, ttl time.Duration) (*Client, error) {
	payload, err := transport.Encode(createSessionReq{TTLMillis: ttl.Milliseconds()})
	if err != nil {
		return nil, err
	}
	raw, err := caller.Call(context.Background(), serverDst, methodCreateSession, payload)
	if err != nil {
		return nil, err
	}
	var resp createSessionResp
	if err := transport.Decode(raw, &resp); err != nil {
		return nil, err
	}
	return &Client{caller: caller, serverDst: serverDst, sessionID: resp.SessionID}, nil
}

// SessionID returns the client's server-assigned session id.
func (c *Client) SessionID() int64 { return c.sessionID }

// Lock acquires the global lock for key, waiting up to wait. ctx carries
// the caller's trace span: the lock round trip to the (possibly remote)
// coordination service is a significant share of a strongly consistent
// put's latency, so it should show up in the trace.
func (c *Client) Lock(ctx context.Context, key string, wait time.Duration) error {
	payload, err := transport.Encode(acquireReq{
		SessionID: c.sessionID, Key: key, WaitMillis: wait.Milliseconds(),
	})
	if err != nil {
		return err
	}
	raw, err := c.caller.Call(ctx, c.serverDst, methodAcquire, payload)
	if err != nil {
		return err
	}
	var resp acquireResp
	if err := transport.Decode(raw, &resp); err != nil {
		return err
	}
	if !resp.Granted {
		return ErrTimeout
	}
	return nil
}

// TryLock attempts the lock without waiting and reports whether it was
// granted.
func (c *Client) TryLock(ctx context.Context, key string) (bool, error) {
	payload, err := transport.Encode(acquireReq{SessionID: c.sessionID, Key: key})
	if err != nil {
		return false, err
	}
	raw, err := c.caller.Call(ctx, c.serverDst, methodAcquire, payload)
	if err != nil {
		return false, err
	}
	var resp acquireResp
	if err := transport.Decode(raw, &resp); err != nil {
		return false, err
	}
	return resp.Granted, nil
}

// Unlock releases the lock for key.
func (c *Client) Unlock(ctx context.Context, key string) error {
	payload, err := transport.Encode(releaseReq{SessionID: c.sessionID, Key: key})
	if err != nil {
		return err
	}
	_, err = c.caller.Call(ctx, c.serverDst, methodRelease, payload)
	return err
}

// KeepAlive renews the session lease.
func (c *Client) KeepAlive() error {
	payload, err := transport.Encode(keepAliveReq{SessionID: c.sessionID})
	if err != nil {
		return err
	}
	_, err = c.caller.Call(context.Background(), c.serverDst, methodKeepAlive, payload)
	return err
}

// Close ends the session, releasing all held locks.
func (c *Client) Close() error {
	payload, err := transport.Encode(closeSessionReq{SessionID: c.sessionID})
	if err != nil {
		return err
	}
	_, err = c.caller.Call(context.Background(), c.serverDst, methodCloseSession, payload)
	return err
}
