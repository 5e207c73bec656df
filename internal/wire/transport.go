package wire

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"p2plb/internal/metrics"
)

// Defaults for the reliable-delivery knobs. RetryBase mirrors the sim
// executor's 2·cost+2 discipline (internal/protocol): the first
// retransmission fires after roughly two round trips plus slack, and
// every further attempt doubles the wait up to RetryCap, with a jittered
// fraction added so synchronized retry storms decorrelate.
const (
	DefaultRetryBase    = 25 * time.Millisecond
	DefaultRetryCap     = time.Second
	DefaultWriteTimeout = 5 * time.Second
	DefaultMaxAttempts  = 8
)

// Config parameterizes a Transport.
type Config struct {
	// Rank is this daemon's index in Addrs; Addrs[Rank] is the address
	// to listen on (host:port, or host:0 for an ephemeral port).
	Rank  int
	Addrs []string
	// ClusterID guards against cross-cluster connections: handshakes
	// with a different ID are refused.
	ClusterID string
	// Incarnation says which life of Rank this process is: strictly
	// higher after every restart, so peers can tell this process's
	// sequence numbers from its predecessor's. Zero is a rank that never
	// restarts (tests).
	Incarnation uint64
	// Handler is called once per accepted peer message (duplicates from
	// retransmission are absorbed before it runs) and reports whether
	// the message took effect. It runs on a connection's read goroutine;
	// the acknowledgement is sent after it returns true, so a handler
	// that has durably recorded its effect before returning gets
	// at-least-once-with-dedup = exactly-once processing. After a false
	// return nothing is acknowledged and nothing is remembered: the
	// sender's retransmission runs the handler again.
	Handler func(m Msg) bool
	// Request serves one synchronous control request.
	Request func(kind string, body json.RawMessage) (any, error)
	// OnPeerRestart runs when the transport meets a life of a peer it
	// has not met before — a known rank back with a higher incarnation,
	// or a rank heard from for the first time. Either way nothing this
	// transport sent has reached that process, so the owner re-sends
	// whatever soft state the peer needs. It runs on a transport
	// goroutine with no transport lock held.
	OnPeerRestart func(rank int)

	// RetryBase/RetryCap/MaxAttempts shape the per-message
	// retransmission ladder; zero values take the defaults above.
	// WriteTimeout is the per-connection write deadline.
	RetryBase    time.Duration
	RetryCap     time.Duration
	WriteTimeout time.Duration
	MaxAttempts  int

	// Seed feeds the retry-jitter stream (any fixed value; jitter only
	// decorrelates timers, it carries no protocol meaning).
	Seed int64
	// Metrics, when set, receives wire.* counters.
	Metrics *metrics.Registry
}

// SendOpts controls one reliable send.
type SendOpts struct {
	// Unbounded retries forever (until the transport closes) instead of
	// giving up after MaxAttempts — the commit phase of a two-phase
	// transfer uses this, because a commit may already have been applied
	// remotely and must therefore be driven to acknowledgement, never
	// abandoned.
	Unbounded bool
	// OnAcked runs (once, on a transport goroutine) when the receiver
	// acknowledged the message.
	OnAcked func()
	// OnFailed runs when a bounded send exhausted its attempts.
	OnFailed func()
}

// dedup is the duplicate-suppression window for one life of one sender:
// inc is the highest incarnation of the rank met so far, in a Hello or a
// HelloAck, and seen holds that incarnation's sequence numbers — false
// while the handler runs, true once it reported success.
type dedup struct {
	inc  uint64
	seen map[uint64]bool
	max  uint64
}

func (d *dedup) mark(seq uint64) {
	d.seen[seq] = false
	if seq > d.max {
		d.max = seq
	}
	// Prune far-behind entries so long-lived daemons stay bounded: a
	// retransmission older than the window would have been acked (and
	// its sender silenced) long ago.
	if len(d.seen) > 8192 {
		for s := range d.seen {
			if s+4096 < d.max {
				delete(d.seen, s)
			}
		}
	}
}

// Transport is one daemon's wire endpoint: a listener for inbound peer
// and control connections, a lazily-dialed outbound connection per
// peer, and the reliable-delivery machinery (acks, retransmission with
// capped doubling and jitter, receiver-side dedup).
type Transport struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	peers   map[int]*conn            // outbound, by rank
	inbound map[*conn]bool           // accepted connections, severed on Close
	pending map[uint64]chan struct{} // un-acked sends, by seq
	seen    map[int]*dedup           // what is known of each peer rank
	kicks   map[int]chan struct{}    // closed when a new life of the rank is met
	nextSeq uint64
	closed  bool

	jmu    sync.Mutex
	jitter *rand.Rand

	stop chan struct{}
	wg   sync.WaitGroup

	cSent, cRetries, cAcked, cFailed, cDups *metrics.Counter
	cPeerRestarts, cStale                   *metrics.Counter
}

// NewTransport starts listening on cfg.Addrs[cfg.Rank] and returns the
// endpoint. Close releases it.
func NewTransport(cfg Config) (*Transport, error) {
	if cfg.Rank < 0 || cfg.Rank >= len(cfg.Addrs) {
		return nil, fmt.Errorf("wire: rank %d outside address table of %d", cfg.Rank, len(cfg.Addrs))
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = DefaultRetryCap
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, err
	}
	t := &Transport{
		cfg:     cfg,
		ln:      ln,
		peers:   make(map[int]*conn),
		inbound: make(map[*conn]bool),
		pending: make(map[uint64]chan struct{}),
		seen:    make(map[int]*dedup),
		kicks:   make(map[int]chan struct{}),
		jitter:  rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Rank)<<20 ^ 0x77697265)),
		stop:    make(chan struct{}),
	}
	reg := cfg.Metrics
	t.cSent = reg.Counter("wire.sent")
	t.cRetries = reg.Counter("wire.retries")
	t.cAcked = reg.Counter("wire.acked")
	t.cFailed = reg.Counter("wire.failed")
	t.cDups = reg.Counter("wire.dups")
	t.cPeerRestarts = reg.Counter("wire.peer_restarts")
	t.cStale = reg.Counter("wire.stale_incarnation")
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with :0 ports).
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Close stops the listener, severs every connection and terminates the
// retry goroutines. In-flight sends are abandoned; their callbacks do
// not run.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.stop)
	t.ln.Close()
	for _, c := range t.peers {
		c.close()
	}
	t.peers = make(map[int]*conn)
	for c := range t.inbound {
		c.close()
	}
	t.inbound = make(map[*conn]bool)
	t.mu.Unlock()
	t.wg.Wait()
}

// Send delivers one message reliably: it is retransmitted on a
// capped-doubling, jittered timer until the destination acknowledges
// it, the attempt budget runs out (bounded sends), or the transport
// closes. Send never blocks on the network; all I/O happens on the
// message's retry goroutine.
func (t *Transport) Send(dst int, kind string, round uint64, body any, opts SendOpts) error {
	if dst < 0 || dst >= len(t.cfg.Addrs) {
		return fmt.Errorf("wire: destination rank %d outside address table", dst)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("wire: transport closed")
	}
	t.nextSeq++
	m := Msg{Seq: t.nextSeq, Src: t.cfg.Rank, Kind: kind, Round: round, Body: raw}
	acked := make(chan struct{})
	t.pending[m.Seq] = acked
	t.wg.Add(1)
	t.mu.Unlock()
	t.cSent.Inc()
	go t.retryLoop(dst, m, acked, opts)
	return nil
}

// Announce dials each rank in the background, so that it learns this
// process's incarnation from the handshake now instead of from whatever
// message happens to be sent to it first. A rank that is down is
// skipped: it announces itself when it comes up.
func (t *Transport) Announce(ranks ...int) {
	for _, dst := range ranks {
		t.mu.Lock()
		if t.closed || dst < 0 || dst >= len(t.cfg.Addrs) {
			t.mu.Unlock()
			continue
		}
		t.wg.Add(1)
		t.mu.Unlock()
		go func() {
			defer t.wg.Done()
			t.peerConn(dst)
		}()
	}
}

// retryLoop drives one message to acknowledgement (or failure).
func (t *Transport) retryLoop(dst int, m Msg, acked chan struct{}, opts SendOpts) {
	defer t.wg.Done()
	backoff := t.cfg.RetryBase
	for attempt := 0; ; attempt++ {
		kick := t.deliver(dst, m)
		wait := backoff + t.jitterFor(backoff)
		timer := time.NewTimer(wait)
		select {
		case <-acked:
			timer.Stop()
			t.cAcked.Inc()
			if opts.OnAcked != nil {
				opts.OnAcked()
			}
			return
		case <-t.stop:
			timer.Stop()
			return
		case <-kick:
			// A new life of dst is up and has seen none of this: retransmit
			// now and start the ladder, and its budget, over.
			timer.Stop()
			backoff, attempt = t.cfg.RetryBase, -1
		case <-timer.C:
			if backoff < t.cfg.RetryCap {
				backoff = min(2*backoff, t.cfg.RetryCap)
			}
		}
		if !opts.Unbounded && attempt+1 >= t.cfg.MaxAttempts {
			t.mu.Lock()
			delete(t.pending, m.Seq)
			t.mu.Unlock()
			t.cFailed.Inc()
			if opts.OnFailed != nil {
				opts.OnFailed()
			}
			return
		}
		t.cRetries.Inc()
	}
}

// jitterFor draws a uniform jitter in [0, backoff/4].
func (t *Transport) jitterFor(backoff time.Duration) time.Duration {
	if backoff <= 4 {
		return 0
	}
	t.jmu.Lock()
	defer t.jmu.Unlock()
	return time.Duration(t.jitter.Int63n(int64(backoff / 4)))
}

// deliver makes one best-effort attempt to put the message on the wire;
// errors are swallowed (the retry timer is the recovery path). The
// returned channel closes when a life of dst newer than the one this
// attempt was addressed to is met.
func (t *Transport) deliver(dst int, m Msg) <-chan struct{} {
	c, kick, err := t.peerConn(dst)
	if err != nil {
		return kick
	}
	if err := c.writeFrame(frameMsg, m); err != nil {
		t.dropPeer(dst, c)
	}
	return kick
}

// kickLocked returns the channel that the next new life of dst closes.
func (t *Transport) kickLocked(dst int) chan struct{} {
	ch := t.kicks[dst]
	if ch == nil {
		ch = make(chan struct{})
		t.kicks[dst] = ch
	}
	return ch
}

// meetLocked records that rank's process is at incarnation inc, learned
// from either side of a handshake. fresh: this life of rank is new to
// us, so its duplicate window starts empty, the outbound connection to
// its predecessor is dropped and every send waiting on rank is kicked;
// the caller owes a peerRestarted call once the lock is released.
// stale (and counted): a higher incarnation of rank is already known.
func (t *Transport) meetLocked(rank int, inc uint64) (fresh, stale bool) {
	d := t.seen[rank]
	if d != nil && inc <= d.inc {
		if inc < d.inc {
			t.cStale.Inc()
		}
		return false, inc < d.inc
	}
	if d != nil {
		t.cPeerRestarts.Inc()
	}
	t.seen[rank] = &dedup{inc: inc, seen: make(map[uint64]bool)}
	if c, ok := t.peers[rank]; ok {
		delete(t.peers, rank)
		c.close()
	}
	if ch, ok := t.kicks[rank]; ok {
		delete(t.kicks, rank)
		close(ch)
	}
	return true, false
}

func (t *Transport) peerRestarted(rank int) {
	if t.cfg.OnPeerRestart != nil {
		t.cfg.OnPeerRestart(rank)
	}
}

// peerConn returns the outbound connection to dst, dialing and
// handshaking a fresh one if none is cached, together with dst's kick
// channel as it stood when that connection was known good — so a life of
// dst met at any later moment, including during a failed dial, closes
// the channel the caller holds.
func (t *Transport) peerConn(dst int) (*conn, <-chan struct{}, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, nil, fmt.Errorf("wire: transport closed")
	}
	kick := t.kickLocked(dst)
	if c, ok := t.peers[dst]; ok {
		t.mu.Unlock()
		return c, kick, nil
	}
	addr := t.cfg.Addrs[dst]
	t.mu.Unlock()

	nc, err := net.DialTimeout("tcp", addr, t.cfg.WriteTimeout)
	if err != nil {
		return nil, kick, err
	}
	c := newConn(nc, t.cfg.WriteTimeout)
	ack, err := handshakeDial(c, Hello{Version: Version, ClusterID: t.cfg.ClusterID, Rank: t.cfg.Rank, Role: "peer", Incarnation: t.cfg.Incarnation})
	if err != nil {
		c.close()
		return nil, kick, err
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.close()
		return nil, nil, fmt.Errorf("wire: transport closed")
	}
	fresh, stale := t.meetLocked(dst, ack.Incarnation)
	if stale {
		t.mu.Unlock()
		c.close()
		return nil, kick, fmt.Errorf("wire: rank %d answered with stale incarnation %d", dst, ack.Incarnation)
	}
	// The write that follows goes to the life just met, so only a later
	// one should kick it.
	kick = t.kickLocked(dst)
	if prev, ok := t.peers[dst]; ok {
		// Lost a dial race; keep the established one.
		t.mu.Unlock()
		c.close()
		return prev, kick, nil
	}
	t.peers[dst] = c
	t.wg.Add(1)
	t.mu.Unlock()

	// Outbound connections carry only acks back; drain them.
	go t.ackLoop(dst, c)
	if fresh {
		t.peerRestarted(dst)
	}
	return c, kick, nil
}

// dropPeer discards a failed outbound connection so the next attempt
// redials.
func (t *Transport) dropPeer(dst int, c *conn) {
	t.mu.Lock()
	if t.peers[dst] == c {
		delete(t.peers, dst)
	}
	t.mu.Unlock()
	c.close()
}

// ackLoop reads acknowledgement frames off an outbound connection.
func (t *Transport) ackLoop(dst int, c *conn) {
	defer t.wg.Done()
	for {
		kind, body, err := c.readFrame()
		if err != nil {
			t.dropPeer(dst, c)
			return
		}
		if kind != frameAck {
			continue
		}
		var a Ack
		if json.Unmarshal(body, &a) != nil {
			continue
		}
		t.mu.Lock()
		ch, ok := t.pending[a.Seq]
		if ok {
			delete(t.pending, a.Seq)
		}
		t.mu.Unlock()
		if ok {
			close(ch)
		}
	}
}

// acceptLoop serves inbound peer and control connections.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go t.serveConn(nc)
	}
}

// serveConn handshakes one inbound connection and dispatches its
// frames. Version or cluster mismatches are answered with our own
// HelloAck (so the dialer can diagnose) and a close; so is a peer whose
// incarnation is lower than one already met.
func (t *Transport) serveConn(nc net.Conn) {
	defer t.wg.Done()
	c := newConn(nc, t.cfg.WriteTimeout)
	defer c.close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inbound[c] = true
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
	}()
	kind, body, err := c.readFrame()
	if err != nil || kind != frameHello {
		return
	}
	var hello Hello
	if json.Unmarshal(body, &hello) != nil {
		return
	}
	if err := c.writeFrame(frameHelloAck, HelloAck{Version: Version, Rank: t.cfg.Rank, Incarnation: t.cfg.Incarnation}); err != nil {
		return
	}
	if hello.Version != Version || hello.ClusterID != t.cfg.ClusterID {
		return
	}
	switch hello.Role {
	case "ctl":
	case "peer":
		if hello.Rank < 0 || hello.Rank >= len(t.cfg.Addrs) {
			return
		}
		t.mu.Lock()
		fresh, stale := t.meetLocked(hello.Rank, hello.Incarnation)
		t.mu.Unlock()
		if stale {
			return
		}
		if fresh {
			t.peerRestarted(hello.Rank)
		}
	default:
		return
	}
	for {
		kind, body, err := c.readFrame()
		if err != nil {
			return
		}
		switch kind {
		case frameMsg:
			var m Msg
			if json.Unmarshal(body, &m) != nil {
				continue
			}
			ack, stale := t.accept(m, hello.Incarnation)
			if stale {
				return
			}
			if ack {
				c.writeFrame(frameAck, Ack{Seq: m.Seq})
			}
		case frameReq:
			var r Req
			if json.Unmarshal(body, &r) != nil {
				continue
			}
			c.writeFrame(frameResp, t.serveReq(r))
		}
	}
}

// accept runs the dedup window and, for a first delivery, the handler;
// inc is the incarnation the connection announced in its Hello. ack: the
// message has taken effect, now or at an earlier delivery (duplicates
// re-ack so a sender whose first ack was lost goes quiet; a duplicate of
// a message whose handler is still running, or failed, does not). stale:
// the frame is from a life of the sender that a later one has replaced;
// it is neither handled nor acknowledged.
func (t *Transport) accept(m Msg, inc uint64) (ack, stale bool) {
	t.mu.Lock()
	d := t.seen[m.Src]
	if d == nil {
		d = &dedup{inc: inc, seen: make(map[uint64]bool)}
		t.seen[m.Src] = d
	}
	if inc < d.inc {
		t.mu.Unlock()
		t.cStale.Inc()
		return false, true
	}
	if handled, dup := d.seen[m.Seq]; dup {
		t.mu.Unlock()
		t.cDups.Inc()
		return handled, false
	}
	d.mark(m.Seq)
	t.mu.Unlock()
	ok := t.cfg.Handler == nil || t.cfg.Handler(m)
	t.mu.Lock()
	if ok {
		d.seen[m.Seq] = true
	} else {
		delete(d.seen, m.Seq)
	}
	t.mu.Unlock()
	return ok, false
}

// serveReq answers one control request.
func (t *Transport) serveReq(r Req) Resp {
	if t.cfg.Request == nil {
		return Resp{Err: "no control handler"}
	}
	out, err := t.cfg.Request(r.Kind, r.Body)
	if err != nil {
		return Resp{Err: err.Error()}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return Resp{Err: err.Error()}
	}
	return Resp{OK: true, Body: raw}
}
