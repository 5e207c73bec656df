package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// rawFrame lays out one frame by hand, independently of writeFrame, so
// the fuzz oracles below do not check the codec against itself. length
// overrides the prefix when >= 0.
func rawFrame(kind byte, body []byte, length int64) []byte {
	if length < 0 {
		length = int64(len(body) + 1)
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(length))
	out = append(out, kind)
	return append(out, body...)
}

func jsonFrame(kind byte, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return rawFrame(kind, body, -1)
}

// splitFrame is the oracle's reading of the frame layout: the first
// frame of data, if data holds a whole well-formed one.
func splitFrame(data []byte) (kind byte, body, rest []byte, ok bool) {
	if len(data) < 4 {
		return 0, nil, nil, false
	}
	n := uint64(binary.BigEndian.Uint32(data))
	if n < 1 || n > maxFrame || uint64(len(data)-4) < n {
		return 0, nil, nil, false
	}
	return data[4], data[5 : 4+n], data[4+n:], true
}

// handshakeSeeds are streams a dialer or an acceptor might send, in the
// current format; testdata/fuzz holds the byte-level edge cases (bad
// length prefixes, truncated bodies, the version-1 handshake as it was
// on the wire).
func handshakeSeeds() [][]byte {
	hello := func(version int, cluster string, rank int, role string, inc uint64) []byte {
		return jsonFrame(frameHello, Hello{Version: version, ClusterID: cluster, Rank: rank, Role: role, Incarnation: inc})
	}
	msg := jsonFrame(frameMsg, Msg{Seq: 1, Src: 1, Kind: "lbi", Round: 3, Body: json.RawMessage(`{"child":1}`)})
	req := jsonFrame(frameReq, Req{Kind: "status"})
	return [][]byte{
		append(hello(Version, "fuzz", 1, "peer", 1), msg...),
		append(hello(Version, "fuzz", 1, "peer", 0), msg...),
		append(hello(Version, "fuzz", 1, "peer", math.MaxUint64), msg...),
		append(hello(Version, "fuzz", -1, "ctl", 0), req...),
		append(hello(Version+1, "fuzz", 1, "peer", 1), msg...),
		append(hello(Version, "other", 1, "peer", 1), msg...),
		append(hello(Version, "fuzz", 7, "peer", 1), msg...),
		append(hello(Version, "fuzz", 1, "", 1), msg...),
		jsonFrame(frameHelloAck, HelloAck{Version: Version, Rank: 0, Incarnation: 1}),
		jsonFrame(frameHelloAck, HelloAck{Version: Version, Rank: 0, Incarnation: math.MaxUint64}),
		jsonFrame(frameHelloAck, HelloAck{Version: Version - 1, Rank: 0}),
	}
}

// FuzzReadFrame: whatever the bytes, readFrame returns exactly the
// frames the layout says are there, stops at the first byte that is not
// the start of a whole well-formed frame, and never hands back a frame
// longer than maxFrame.
func FuzzReadFrame(f *testing.F) {
	for _, s := range handshakeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &conn{r: bufio.NewReader(bytes.NewReader(data))}
		rest := data
		for {
			kind, body, err := c.readFrame()
			wantKind, wantBody, after, ok := splitFrame(rest)
			if (err == nil) != ok {
				t.Fatalf("readFrame err %v, but a well-formed frame at offset %d: %v", err, len(data)-len(rest), ok)
			}
			if err != nil {
				return
			}
			if kind != wantKind || !bytes.Equal(body, wantBody) {
				t.Fatalf("frame at offset %d: got kind %d body %q, want kind %d body %q",
					len(data)-len(rest), kind, body, wantKind, wantBody)
			}
			rest = after
		}
	})
}

// FuzzHandshake plays data against both sides of the handshake. As a
// dialer's stream into an acceptor: the acceptor never hangs, answers
// only a parseable Hello and only with its own version and incarnation,
// and lets a message through to the handler only behind a Hello of the
// right version, cluster, role and rank. As an acceptor's answer to a
// dialer: handshakeDial succeeds only on a HelloAck of our version.
func FuzzHandshake(f *testing.F) {
	for _, s := range handshakeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzAcceptor(t, data)
		fuzzDialer(t, data)
	})
}

func fuzzAcceptor(t *testing.T, data []byte) {
	const incarnation = 9
	var handled atomic.Int64
	tr, err := NewTransport(Config{Rank: 0, Addrs: []string{"127.0.0.1:0", "unused"}, ClusterID: "fuzz",
		Incarnation: incarnation, WriteTimeout: time.Second,
		Handler: func(Msg) bool { handled.Add(1); return true }})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	client, server := net.Pipe()
	served := make(chan struct{})
	tr.wg.Add(1)
	go func() {
		tr.serveConn(server)
		close(served)
	}()
	var reply bytes.Buffer
	drained := make(chan struct{})
	go func() {
		io.Copy(&reply, client)
		close(drained)
	}()
	client.Write(data) // returns once the acceptor took it all, or hung up
	client.Close()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("acceptor still serving a closed connection")
	}
	<-drained

	kind, body, _, ok := splitFrame(data)
	var hello Hello
	parsed := ok && kind == frameHello && json.Unmarshal(body, &hello) == nil
	if reply.Len() > 0 {
		if !parsed {
			t.Fatalf("acceptor answered %q to something that is no Hello", reply.Bytes())
		}
		kind, body, _, ok := splitFrame(reply.Bytes())
		var ack HelloAck
		if !ok || kind != frameHelloAck || json.Unmarshal(body, &ack) != nil ||
			ack.Version != Version || ack.Incarnation != incarnation {
			t.Fatalf("acceptor's first answer is not its HelloAck: %q", reply.Bytes())
		}
	}
	admissible := parsed && hello.Version == Version && hello.ClusterID == "fuzz" &&
		hello.Role == "peer" && hello.Rank >= 0 && hello.Rank < 2
	if handled.Load() > 0 && !admissible {
		t.Fatalf("handler ran behind an inadmissible handshake: %q", data)
	}
}

func fuzzDialer(t *testing.T, data []byte) {
	client, server := net.Pipe()
	go io.Copy(io.Discard, server) // the dialer's Hello
	go func() {
		server.Write(data)
		server.Close()
	}()
	client.SetDeadline(time.Now().Add(10 * time.Second))
	ack, err := handshakeDial(newConn(client, time.Second), Hello{Version: Version, ClusterID: "fuzz", Rank: 1, Role: "peer", Incarnation: 1})
	client.Close()
	if err != nil {
		return
	}
	kind, body, _, ok := splitFrame(data)
	var want HelloAck
	if !ok || kind != frameHelloAck || json.Unmarshal(body, &want) != nil || want.Version != Version || ack != want {
		t.Fatalf("handshakeDial accepted %q as %+v", data, ack)
	}
}
