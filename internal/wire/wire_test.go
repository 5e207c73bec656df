package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2plb/internal/metrics"
)

// freeAddrs reserves n distinct localhost addresses by binding
// ephemeral ports and releasing them. The tiny race (another process
// grabbing the port between close and reuse) is acceptable in tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func newPair(t *testing.T, h0, h1 func(m Msg) bool) (*Transport, *Transport) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	cfg := Config{ClusterID: "test", Addrs: addrs, Seed: 1,
		RetryBase: 10 * time.Millisecond, RetryCap: 100 * time.Millisecond}
	c0, c1 := cfg, cfg
	c0.Rank, c0.Handler = 0, h0
	c1.Rank, c1.Handler = 1, h1
	t0, err := NewTransport(c0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := NewTransport(c1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t0.Close)
	t.Cleanup(t1.Close)
	return t0, t1
}

// TestSendDeliversOnce: a reliable send reaches the peer's handler
// exactly once and the OnAcked callback fires.
func TestSendDeliversOnce(t *testing.T) {
	var got atomic.Int64
	done := make(chan Msg, 1)
	t0, _ := newPair(t, nil, func(m Msg) bool {
		got.Add(1)
		done <- m
		return true
	})
	acked := make(chan struct{})
	err := t0.Send(1, "ping", 7, map[string]int{"x": 42}, SendOpts{OnAcked: func() { close(acked) }})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if m.Kind != "ping" || m.Round != 7 || m.Src != 0 {
			t.Fatalf("bad message: %+v", m)
		}
		var body map[string]int
		if err := json.Unmarshal(m.Body, &body); err != nil || body["x"] != 42 {
			t.Fatalf("bad body: %s", m.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("ack never fired")
	}
	time.Sleep(50 * time.Millisecond)
	if n := got.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
}

// TestRetryAcrossLateStart: a message sent before the receiver exists
// is retransmitted until the receiver comes up — the wire-level analog
// of the sim executor's retried delivery.
func TestRetryAcrossLateStart(t *testing.T) {
	addrs := freeAddrs(t, 2)
	cfg := Config{ClusterID: "test", Addrs: addrs, Seed: 1,
		RetryBase: 10 * time.Millisecond, RetryCap: 50 * time.Millisecond, MaxAttempts: 50}
	c0 := cfg
	c0.Rank = 0
	t0, err := NewTransport(c0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t0.Close)

	acked := make(chan struct{})
	if err := t0.Send(1, "late", 1, nil, SendOpts{OnAcked: func() { close(acked) }}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let a few attempts fail

	done := make(chan struct{}, 1)
	c1 := cfg
	c1.Rank = 1
	c1.Handler = func(m Msg) bool { done <- struct{}{}; return true }
	t1, err := NewTransport(c1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t1.Close)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retransmission never reached the late receiver")
	}
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("ack never fired after late start")
	}
}

// TestBoundedSendFails: with nobody listening, a bounded send exhausts
// its attempts and reports failure.
func TestBoundedSendFails(t *testing.T) {
	addrs := freeAddrs(t, 2)
	cfg := Config{Rank: 0, ClusterID: "test", Addrs: addrs, Seed: 1,
		RetryBase: 5 * time.Millisecond, RetryCap: 10 * time.Millisecond, MaxAttempts: 3}
	tr, err := NewTransport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	failed := make(chan struct{})
	if err := tr.Send(1, "doomed", 1, nil, SendOpts{OnFailed: func() { close(failed) }}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("bounded send never failed")
	}
}

// TestDedupWindow: a retransmitted (duplicate) sequence number is
// absorbed without a second handler run, and still acknowledged.
func TestDedupWindow(t *testing.T) {
	var runs atomic.Int64
	addrs := freeAddrs(t, 1)
	tr, err := NewTransport(Config{Rank: 0, ClusterID: "test", Addrs: addrs, Seed: 1,
		Handler: func(m Msg) bool { runs.Add(1); return true }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	m := Msg{Seq: 9, Src: 3, Kind: "dup"}
	for i := 0; i < 2; i++ {
		if ack, stale := tr.accept(m, 1); !ack || stale {
			t.Fatal("accept must ack both copies")
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
}

// TestControlCall: the synchronous request/response path.
func TestControlCall(t *testing.T) {
	addrs := freeAddrs(t, 1)
	tr, err := NewTransport(Config{Rank: 0, ClusterID: "test", Addrs: addrs, Seed: 1,
		Request: func(kind string, body json.RawMessage) (any, error) {
			if kind == "boom" {
				return nil, fmt.Errorf("kaput")
			}
			return map[string]string{"echo": kind}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)

	out, err := Call(tr.Addr(), "test", "status", nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var reply map[string]string
	if err := json.Unmarshal(out, &reply); err != nil || reply["echo"] != "status" {
		t.Fatalf("bad reply: %s", out)
	}
	if _, err := Call(tr.Addr(), "test", "boom", nil, 2*time.Second); err == nil {
		t.Fatal("error reply must surface as an error")
	}
}

// TestHandshakeVersionMismatch: a dialer speaking a different protocol
// version is told the server's version and refused.
func TestHandshakeVersionMismatch(t *testing.T) {
	addrs := freeAddrs(t, 1)
	tr, err := NewTransport(Config{Rank: 0, ClusterID: "test", Addrs: addrs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)

	nc, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := newConn(nc, time.Second)
	if err := c.writeFrame(frameHello, Hello{Version: Version + 1, ClusterID: "test", Rank: 1, Role: "peer"}); err != nil {
		t.Fatal(err)
	}
	kind, body, err := c.readFrame()
	if err != nil || kind != frameHelloAck {
		t.Fatalf("expected hello-ack, got kind %d err %v", kind, err)
	}
	var ack HelloAck
	if err := json.Unmarshal(body, &ack); err != nil || ack.Version != Version {
		t.Fatalf("bad hello-ack: %s", body)
	}
	// The server must close on us: the next read fails (it never
	// processes frames from a mismatched peer).
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := c.readFrame(); err == nil {
		t.Fatal("server kept the mismatched connection open")
	}
}

// TestConcurrentSends: many goroutines sending at once, all delivered
// exactly once — the mesh under -race.
func TestConcurrentSends(t *testing.T) {
	const msgs = 64
	var got sync.Map
	var count atomic.Int64
	all := make(chan struct{})
	t0, _ := newPair(t, nil, func(m Msg) bool {
		var i int
		json.Unmarshal(m.Body, &i)
		if _, dup := got.LoadOrStore(i, true); dup {
			t.Errorf("payload %d delivered twice", i)
		}
		if count.Add(1) == msgs {
			close(all)
		}
		return true
	})
	var wg sync.WaitGroup
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := t0.Send(1, "n", 1, i, SendOpts{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d messages arrived", count.Load(), msgs)
	}
}

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal(what)
	}
}

// rawPeer dials tr as rank with the given incarnation and completes the
// handshake by hand, so a test can put exact frames on one connection.
func rawPeer(t *testing.T, tr *Transport, rank int, inc uint64) *conn {
	t.Helper()
	nc, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := newConn(nc, time.Second)
	if _, err := handshakeDial(c, Hello{Version: Version, ClusterID: "test", Rank: rank, Role: "peer", Incarnation: inc}); err != nil {
		t.Fatal(err)
	}
	return c
}

// acked sends one Msg frame on a raw connection and reports whether the
// acknowledgement for it came back before the connection was closed or
// the wait ran out.
func acked(t *testing.T, c *conn, m Msg) bool {
	t.Helper()
	if err := c.writeFrame(frameMsg, m); err != nil {
		return false
	}
	c.c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	kind, body, err := c.readFrame()
	if err != nil {
		return false
	}
	var a Ack
	return kind == frameAck && json.Unmarshal(body, &a) == nil && a.Seq == m.Seq
}

// TestRestartedSenderIsNotADuplicate: a transport that restarts numbers
// its messages from 1 again. The receiver, which stayed up and has seen
// the first life's 1, must hand the second life's 1 to its handler
// exactly once; a redial within one life must still be deduplicated; and
// whatever is left of a replaced life is neither handled nor acked. A
// life whose ack is slower than RetryBase retransmits its 1, and the
// receiver counts each such copy as a duplicate of that life's message,
// so the duplicates are the redial's one plus the lives' retries.
func TestRestartedSenderIsNotADuplicate(t *testing.T) {
	addrs := freeAddrs(t, 2)
	cfg := Config{ClusterID: "test", Addrs: addrs, Seed: 1,
		RetryBase: 10 * time.Millisecond, RetryCap: 100 * time.Millisecond}
	var mu sync.Mutex
	got := map[string]int{}
	handled := make(chan string, 8) // one slot a message; the test sends five
	restarted := make(chan int, 8)  // likewise for the lives met
	c1 := cfg
	c1.Rank, c1.Incarnation = 1, 1
	reg := metrics.NewRegistry()
	c1.Metrics = reg
	c1.Handler = func(m Msg) bool {
		mu.Lock()
		got[m.Kind]++
		mu.Unlock()
		handled <- m.Kind
		return true
	}
	c1.OnPeerRestart = func(rank int) { restarted <- rank }
	t1, err := NewTransport(c1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t1.Close)
	count := func(kind string) int {
		mu.Lock()
		defer mu.Unlock()
		return got[kind]
	}
	wait := func(kind string) {
		t.Helper()
		select {
		case k := <-handled:
			if k != kind {
				t.Fatalf("handled %q, want %q", k, kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never reached the handler", kind)
		}
	}
	var retries []*metrics.Counter // wire.retries of each sending life
	retried := func() (n int64) {
		for _, c := range retries {
			n += c.Value()
		}
		return n
	}
	life := func(inc uint64, kind string) *Transport {
		t.Helper()
		c0 := cfg
		c0.Rank, c0.Incarnation = 0, inc
		c0.Metrics = metrics.NewRegistry()
		retries = append(retries, c0.Metrics.Counter("wire.retries"))
		t0, err := NewTransport(c0)
		if err != nil {
			t.Fatal(err)
		}
		ackedCh := make(chan struct{})
		if err := t0.Send(1, kind, 1, nil, SendOpts{OnAcked: func() { close(ackedCh) }}); err != nil {
			t.Fatal(err)
		}
		wait(kind)
		waitClosed(t, ackedCh, kind+" never acknowledged")
		// The life wrote every retransmission before it saw the ack.
		// Once the receiver has counted each as a duplicate, none is
		// left unread to meet a later life (as stale) or a close.
		deadline := time.Now().Add(5 * time.Second)
		for reg.Counter("wire.dups").Value() != retried() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d duplicates counted, want its lives' %d retries", kind, reg.Counter("wire.dups").Value(), retried())
			}
			time.Sleep(time.Millisecond)
		}
		return t0
	}

	life(1, "first-life").Close()
	t0 := life(2, "second-life") // seq 1 again
	defer t0.Close()
	if n := count("second-life"); n != 1 {
		t.Fatalf("restarted sender's first message handled %d times, want 1", n)
	}
	for i := 0; i < 2; i++ { // met at incarnation 1, then at 2
		select {
		case r := <-restarted:
			if r != 0 {
				t.Fatalf("restart reported for rank %d, want 0", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("new life of rank 0 not reported")
		}
	}

	// A redial within the second life retransmits seq 1: absorbed, and
	// acknowledged so the sender goes quiet.
	redial := rawPeer(t, t1, 0, 2)
	if !acked(t, redial, Msg{Seq: 1, Src: 0, Kind: "redial-dup"}) {
		t.Fatal("same-incarnation retransmission not acknowledged")
	}
	if n := count("redial-dup"); n != 0 {
		t.Fatal("same-incarnation retransmission reached the handler")
	}

	// A dialer from the first life is refused at the handshake.
	old := rawPeer(t, t1, 0, 1)
	if acked(t, old, Msg{Seq: 77, Src: 0, Kind: "stale-dial"}) {
		t.Fatal("frame from a lower incarnation was acknowledged")
	}
	// A connection of the second life that is still open when the third
	// announces itself: its frames are the second life's, and dropped.
	if !acked(t, redial, Msg{Seq: 2, Src: 0, Kind: "still-current"}) {
		t.Fatal("current life's message not acknowledged")
	}
	wait("still-current")
	rawPeer(t, t1, 0, 3)
	// The listener acknowledges the hello before it records the new
	// life; the restart hook fires after it has.
	select {
	case <-restarted:
	case <-time.After(5 * time.Second):
		t.Fatal("third life of rank 0 not reported")
	}
	if acked(t, redial, Msg{Seq: 3, Src: 0, Kind: "stale-frame"}) {
		t.Fatal("frame on a replaced life's connection was acknowledged")
	}
	if count("stale-dial") != 0 || count("stale-frame") != 0 {
		t.Fatal("frame from a lower incarnation reached the handler")
	}
	snap := reg.Snapshot().Counters
	if want := 1 + retried(); snap["wire.peer_restarts"] != 2 || snap["wire.stale_incarnation"] != 2 || snap["wire.dups"] != want {
		t.Fatalf("peer_restarts %d stale_incarnation %d dups %d, want 2 2 %d (the redial's 1 + the lives' retries)",
			snap["wire.peer_restarts"], snap["wire.stale_incarnation"], snap["wire.dups"], want)
	}
}

// TestFailedHandlerIsNotAcked: a handler that reports failure gets the
// message again from the retransmission ladder, and the sender hears
// nothing until a run succeeds.
func TestFailedHandlerIsNotAcked(t *testing.T) {
	var runs atomic.Int64
	t0, _ := newPair(t, nil, func(m Msg) bool { return runs.Add(1) >= 3 })
	ackedCh := make(chan struct{})
	if err := t0.Send(1, "flaky", 1, nil, SendOpts{OnAcked: func() { close(ackedCh) }}); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, ackedCh, "never acknowledged")
	if n := runs.Load(); n != 3 {
		t.Fatalf("handler ran %d times before the ack, want 3", n)
	}
}

// TestKickOnNewLife: a send waiting out a long backoff against a dead
// peer goes out the moment the peer's next life announces itself.
func TestKickOnNewLife(t *testing.T) {
	addrs := freeAddrs(t, 2)
	cfg := Config{ClusterID: "test", Addrs: addrs, Seed: 1,
		RetryBase: time.Minute, RetryCap: time.Minute}
	c0 := cfg
	c0.Rank, c0.Incarnation = 0, 1
	t0, err := NewTransport(c0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t0.Close)
	ackedCh := make(chan struct{})
	if err := t0.Send(1, "parked", 1, nil, SendOpts{Unbounded: true, OnAcked: func() { close(ackedCh) }}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the first attempt finds nobody and parks for a minute
	c1 := cfg
	c1.Rank, c1.Incarnation = 1, 1
	t1, err := NewTransport(c1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(t1.Close)
	t1.Announce(0)
	waitClosed(t, ackedCh, "announcement did not kick the parked send")
}
