// Fixture for the lockguard analyzer: guarded-field inference over
// named mutexes, RWMutexes and embedded mutexes.
package lockguard

import "sync"

// counter guards n with mu; label is lock-free by design (written
// before the goroutines start, never under the lock).
type counter struct {
	mu    sync.Mutex
	n     int
	label string
}

// inc writes n under the lock: this is what infers the guard.
func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// badRead reads the guarded field without the lock.
func (c *counter) badRead() int {
	return c.n // want "counter.n is read without holding mu"
}

// goodRead holds the lock (deferred unlock holds to function end).
func goodRead(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// badCross holds a's lock but touches b's field: locking one instance
// does not excuse another.
func badCross(a, b *counter) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return b.n // want "counter.n is read without holding mu"
}

// goodLabel touches the unguarded field; no lock is required because no
// write to label ever happens under one.
func goodLabel(c *counter) string {
	return c.label
}

// table guards its map header with a RWMutex: writers take Lock,
// readers RLock.
type table struct {
	mu sync.RWMutex
	m  map[string]int
}

// reset swaps the map under the write lock: infers the guard on m.
func (t *table) reset() {
	t.mu.Lock()
	t.m = make(map[string]int)
	t.mu.Unlock()
}

// goodGet reads under RLock: a read lock satisfies the access side.
func goodGet(t *table, k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[k]
}

// badGet reads the guarded map without any lock.
func badGet(t *table, k string) int {
	return t.m[k] // want "table.m is read without holding mu"
}

// box embeds its mutex and locks through the struct itself.
type box struct {
	sync.Mutex
	v int
}

func (b *box) put(v int) {
	b.Lock()
	b.v = v
	b.Unlock()
}

// badPeek reads the embedded-mutex-guarded field without locking.
func (b *box) badPeek() int {
	return b.v // want "box.v is read without holding the embedded mutex"
}

// goodPeek locks through the embedded mutex.
func goodPeek(b *box) int {
	b.Lock()
	defer b.Unlock()
	return b.v
}

// badWrite shows the write side: an unlocked write to a guarded field
// is flagged too.
func badWrite(c *counter) {
	c.n = 0 // want "counter.n is written without holding mu"
}

// conn is built by newConn, which holds mu while it fills in peer: the
// lock there keeps callbacks out until the value is whole. peer is
// never assigned again, so it is immutable, not guarded.
type conn struct {
	mu   sync.Mutex
	peer string
	seq  int
}

func newConn(peer string) *conn {
	c := &conn{}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peer = peer
	c.seq = 1
	return c
}

// goodPeer reads the constructor-only field lock-free.
func (c *conn) goodPeer() string {
	return c.peer
}

// next writes seq under the lock outside the constructor: seq is
// guarded, whatever newConn did.
func (c *conn) next() {
	c.mu.Lock()
	c.seq++
	c.mu.Unlock()
}

func (c *conn) badSeq() int {
	return c.seq // want "conn.seq is read without holding mu"
}

// slot is written through a local that fill did not construct — an
// alias of a shared value — so the write infers the guard as usual.
type slot struct {
	mu sync.Mutex
	v  int
}

func fill(t map[string]*slot, k string) {
	s := t[k]
	s.mu.Lock()
	s.v = 1
	s.mu.Unlock()
}

func (s *slot) badV() int {
	return s.v // want "slot.v is read without holding mu"
}
