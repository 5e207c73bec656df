// Package wire is the stdlib-only TCP wire protocol of the
// multi-process deployment: length-prefixed frames carrying the
// protocol-core messages (LBI reports, dissemination, VSA lists, VST
// assignment/prepare/commit) between lbd daemons, plus a small
// synchronous control channel the supervisor drives rounds and status
// queries over.
//
// Layering: this package is pure transport. It knows nothing about the
// simulation engine or the deterministic protocol driver — the lbvet
// layercheck analyzer enforces that it never imports internal/sim or
// internal/protocol, and conversely that the runtime-agnostic protocol
// core (internal/lbnode) never imports this package. The cluster layer
// (internal/cluster) owns the translation between wire payloads and the
// lbnode machine types.
//
// Frame format (all integers big-endian):
//
//	[4-byte length][1-byte kind][JSON body]
//
// where length counts the kind byte plus the body. Every connection
// opens with a versioned handshake: the dialer sends a Hello frame
// (protocol version, cluster ID, rank, role, incarnation), the acceptor
// answers with a HelloAck carrying its own version and incarnation;
// either side closes on a version or cluster mismatch. Every write is
// guarded by a per-connection write deadline, so a peer that stops
// draining its socket fails the writer instead of wedging it.
//
// Incarnations. A process's sequence numbers start again at 1 when it
// restarts, so a sequence number names a message only together with the
// life of the rank that sent it. Each life has an incarnation number,
// strictly increasing across restarts (the daemon counts its boots in
// its WAL). The handshake carries it in both directions, so every frame
// on a connection inherits it without carrying it: the receiver's
// duplicate window belongs to one (rank, incarnation), is thrown away
// when a higher incarnation of the rank shows up, and frames from a
// lower one are neither handled nor acknowledged.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Version is the wire-protocol version exchanged in the handshake.
// Bump it on any frame- or message-layout change; mismatched peers
// refuse each other at handshake time instead of misparsing frames.
const Version = 2

// maxFrame bounds a frame's payload so a corrupt length prefix cannot
// make a reader allocate unboundedly.
const maxFrame = 16 << 20

// Frame kinds.
const (
	frameHello    byte = 1
	frameHelloAck byte = 2
	frameMsg      byte = 3
	frameAck      byte = 4
	frameReq      byte = 5
	frameResp     byte = 6
)

// Hello is the dialer's handshake frame.
type Hello struct {
	Version   int    `json:"version"`
	ClusterID string `json:"cluster_id"`
	Rank      int    `json:"rank"` // -1 for a control client
	Role      string `json:"role"` // "peer" or "ctl"
	// Incarnation is which life of Rank is dialing; control clients
	// send 0.
	Incarnation uint64 `json:"incarnation"`
}

// HelloAck is the acceptor's handshake answer.
type HelloAck struct {
	Version     int    `json:"version"`
	Rank        int    `json:"rank"`
	Incarnation uint64 `json:"incarnation"`
}

// Msg is one reliable peer message. Seq is a per-sender sequence number
// used for acknowledgement and receiver-side duplicate suppression;
// Kind and Round route the payload to the right state machine at the
// receiving daemon.
type Msg struct {
	Seq   uint64          `json:"seq"`
	Src   int             `json:"src"`
	Kind  string          `json:"kind"`
	Round uint64          `json:"round"`
	Body  json.RawMessage `json:"body,omitempty"`
}

// Ack acknowledges one Msg by sequence number.
type Ack struct {
	Seq uint64 `json:"seq"`
}

// Req is one synchronous control request (supervisor → daemon).
type Req struct {
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Resp answers a Req.
type Resp struct {
	OK   bool            `json:"ok"`
	Err  string          `json:"err,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
}

// conn wraps a net.Conn with framed, deadline-guarded I/O. Writes are
// serialized by an internal mutex so a retry goroutine and an ack
// writer can share one connection.
type conn struct {
	c       net.Conn
	r       *bufio.Reader
	wmu     sync.Mutex
	w       *bufio.Writer
	timeout time.Duration
}

func newConn(c net.Conn, writeTimeout time.Duration) *conn {
	return &conn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), timeout: writeTimeout}
}

// writeFrame marshals v and writes one frame under the connection's
// write deadline.
func (c *conn) writeFrame(kind byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body)+1 > maxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body)+1)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = kind
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.c.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return err
	}
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(body); err != nil {
		return err
	}
	return c.w.Flush()
}

// readFrame reads one frame; it blocks until a frame arrives or the
// connection dies.
func (c *conn) readFrame() (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

func (c *conn) close() { c.c.Close() }

// handshakeDial runs the dialer's side of the handshake.
func handshakeDial(c *conn, hello Hello) (HelloAck, error) {
	if err := c.writeFrame(frameHello, hello); err != nil {
		return HelloAck{}, err
	}
	kind, body, err := c.readFrame()
	if err != nil {
		return HelloAck{}, err
	}
	if kind != frameHelloAck {
		return HelloAck{}, fmt.Errorf("wire: expected hello-ack, got frame kind %d", kind)
	}
	var ack HelloAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return HelloAck{}, err
	}
	if ack.Version != Version {
		return HelloAck{}, fmt.Errorf("wire: version mismatch: peer speaks v%d, we speak v%d", ack.Version, Version)
	}
	return ack, nil
}
