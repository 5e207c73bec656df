package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"p2plb/internal/ident"
)

// The write-ahead log makes the two-phase VST exactly-once across
// SIGKILL. It is a JSON-lines file of five record types:
//
//	snap   full daemon state: inventory, applied-transfer set, pending
//	       escrows, drift bookkeeping. Written at first boot and after
//	       every drift application; replay resets to the latest snap and
//	       folds the records after it.
//	pend   sender-side escrow: the VS left the local store and a commit
//	       is (or will be) on the wire. Written BEFORE the first commit
//	       send, so a crash between escrow and send replays into a
//	       resumed commit, never a lost VS.
//	apply  receiver-side transfer application: the VS entered the local
//	       store under this pairing ID. The ID set makes duplicate
//	       commit deliveries (retransmissions crossing a restart, where
//	       the transport's dedup window is empty) idempotent.
//	done   sender-side completion: the commit was acknowledged, the
//	       escrow is closed.
//	boot   one per OpenWAL, written before anything else this life
//	       appends. The count of them is the rank's incarnation number:
//	       it survives SIGKILL, no snap resets it, and it is what lets a
//	       peer tell this process's sequence numbers from its
//	       predecessor's (see internal/wire). The applied-set above guards
//	       a transfer against a receiver restart; the incarnation guards
//	       it against a sender restart.
//
// Every append is flushed to the OS before the daemon acts on it, which
// is exactly the durability the deployment needs: the fault model is
// process death (SIGKILL), not machine death, and the page cache
// survives the former. No fsync, no group commit.
type walRec struct {
	T     string   `json:"t"`
	Round uint64   `json:"r,omitempty"`
	Pair  string   `json:"pair,omitempty"`
	ID    ident.ID `json:"id,omitempty"`
	Load  float64  `json:"load,omitempty"`
	Peer  int      `json:"peer,omitempty"`
	Snap  *walSnap `json:"snap,omitempty"`
}

type walSnap struct {
	Capacity   float64         `json:"cap"`
	VSs        []VSRec         `json:"vss"`
	Applied    []string        `json:"applied"`
	Pending    []PendingCommit `json:"pending"`
	DriftRound uint64          `json:"drift_round"`
	DriftSum   float64         `json:"drift_sum"`
}

// PendingCommit is one open sender-side escrow: VS ID left the store
// under pairing Pair and must be driven into rank Dst until
// acknowledged.
type PendingCommit struct {
	Pair string   `json:"pair"`
	ID   ident.ID `json:"id"`
	Load float64  `json:"load"`
	Dst  int      `json:"dst"`
}

// WALState is the daemon state recovered by replay.
type WALState struct {
	// Incarnation counts the times this log has been opened, this one
	// included: 1 at first boot, one higher after every restart.
	Incarnation uint64
	HasSnap     bool
	Capacity    float64
	Store       map[ident.ID]float64
	Applied     map[string]bool
	Pending     map[string]PendingCommit
	DriftRound  uint64
	DriftSum    float64
}

// WAL is the append side of the log. Appends are serialized and flushed
// before returning.
type WAL struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// OpenWAL opens (creating if absent) the log at path, replays it, and
// returns the recovered state plus the handle for further appends.
func OpenWAL(path string) (*WAL, *WALState, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st := &WALState{
		Store:   make(map[ident.ID]float64),
		Applied: make(map[string]bool),
		Pending: make(map[string]PendingCommit),
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec walRec
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn final line (killed mid-append) is expected; anything
			// torn earlier would have failed the flush that follows it.
			continue
		}
		st.apply(rec)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: wal replay %s: %w", path, err)
	}
	w := &WAL{f: f, w: bufio.NewWriter(f)}
	// A torn tail has no newline; end it, or the first record of this
	// life would be glued to it and lost to the next replay with it.
	if end, err := f.Seek(0, io.SeekEnd); err == nil && end > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err == nil && last[0] != '\n' {
			w.w.WriteByte('\n')
		}
	}
	st.Incarnation++
	if err := w.Append(walRec{T: "boot"}); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: wal boot record %s: %w", path, err)
	}
	return w, st, nil
}

func (st *WALState) apply(rec walRec) {
	switch rec.T {
	case "boot":
		st.Incarnation++
	case "snap":
		if rec.Snap == nil {
			return
		}
		st.HasSnap = true
		st.Capacity = rec.Snap.Capacity
		st.Store = make(map[ident.ID]float64, len(rec.Snap.VSs))
		for _, vs := range rec.Snap.VSs {
			st.Store[vs.ID] = vs.Load
		}
		st.Applied = make(map[string]bool, len(rec.Snap.Applied))
		for _, p := range rec.Snap.Applied {
			st.Applied[p] = true
		}
		st.Pending = make(map[string]PendingCommit, len(rec.Snap.Pending))
		for _, pc := range rec.Snap.Pending {
			st.Pending[pc.Pair] = pc
		}
		st.DriftRound = rec.Snap.DriftRound
		st.DriftSum = rec.Snap.DriftSum
	case "pend":
		delete(st.Store, rec.ID)
		st.Pending[rec.Pair] = PendingCommit{Pair: rec.Pair, ID: rec.ID, Load: rec.Load, Dst: rec.Peer}
	case "done":
		delete(st.Pending, rec.Pair)
	case "apply":
		st.Store[rec.ID] = rec.Load
		st.Applied[rec.Pair] = true
	}
}

// Append writes one record and flushes it to the OS.
func (w *WAL) Append(rec walRec) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.w.Write(append(raw, '\n')); err != nil {
		return err
	}
	return w.w.Flush()
}

// Close flushes and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.w.Flush()
	return w.f.Close()
}
