package main

// The benchmark's outside-in instruments. Each one wraps an interface the
// benchmark hands to the program (wire.Transport, wal.Store,
// gruber.Selector, vtime.Clock); none of them reaches inside it.

import (
	"sync"
	"sync/atomic"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/vtime"
	"digruber/internal/wal"
	"digruber/internal/wire"
)

// pausableClock is real time with the ability to stop: while paused,
// Now stays at the instant Pause was called, and on Resume the clock
// picks up from there. The steady-state preload runs under a paused
// clock, so the in-flight population the timed phase starts from is the
// same however long the preload took — a slow preload cannot age
// records out, and a fast one cannot keep extra records alive.
type pausableClock struct {
	vtime.Real

	mu       sync.Mutex
	pausedAt time.Time     // zero while running
	offset   time.Duration // total time spent paused
}

func (c *pausableClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pausedAt.IsZero() {
		return c.pausedAt
	}
	return time.Now().Add(-c.offset)
}

func (c *pausableClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Pause freezes Now at the current instant.
func (c *pausableClock) Pause() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pausedAt.IsZero() {
		c.pausedAt = time.Now().Add(-c.offset)
	}
}

// Resume lets the clock run again from where Pause froze it.
func (c *pausableClock) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pausedAt.IsZero() {
		c.offset = time.Since(c.pausedAt)
		c.pausedAt = time.Time{}
	}
}

// ioCounts accumulates the bytes and write calls on the connections one
// countingTransport dialled.
type ioCounts struct {
	written, read, writes atomic.Int64
}

func (c *ioCounts) bytes() int64 { return c.written.Load() + c.read.Load() }

// countingTransport counts traffic on the dial side only: every
// connection it dials is wrapped, listeners pass through untouched. One
// instance wraps the clients' transport and another the decision
// points', so client RPC bytes and DP↔DP mesh bytes are counted apart.
type countingTransport struct {
	wire.Transport
	ioCounts
}

func (t *countingTransport) Dial(addr string) (wire.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &t.ioCounts}, nil
}

type countingConn struct {
	wire.Conn
	n *ioCounts
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.written.Add(int64(n))
	c.n.writes.Add(1)
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.read.Add(int64(n))
	return n, err
}

// storeProbe wraps a decision point's wal.Store: it counts bytes written
// and syncs, times each Sync, and times each checkpoint from the Create
// of the file that is later renamed into place to that Rename.
type storeProbe struct {
	wal.Store
	clock vtime.Clock

	bytes, syncs, syncNanos atomic.Int64

	mu          sync.Mutex
	created     map[string]time.Time
	checkpoints []time.Duration
}

func newStoreProbe(s wal.Store, clock vtime.Clock) *storeProbe {
	return &storeProbe{Store: s, clock: clock, created: map[string]time.Time{}}
}

func (s *storeProbe) Create(name string) (wal.File, error) {
	start := s.clock.Now()
	f, err := s.Store.Create(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.created[name] = start
	s.mu.Unlock()
	return &fileProbe{File: f, s: s}, nil
}

func (s *storeProbe) Append(name string) (wal.File, error) {
	f, err := s.Store.Append(name)
	if err != nil {
		return nil, err
	}
	return &fileProbe{File: f, s: s}, nil
}

func (s *storeProbe) Rename(oldName, newName string) error {
	err := s.Store.Rename(oldName, newName)
	end := s.clock.Now()
	s.mu.Lock()
	if start, ok := s.created[oldName]; ok && err == nil {
		s.checkpoints = append(s.checkpoints, end.Sub(start))
		delete(s.created, oldName)
	}
	s.mu.Unlock()
	return err
}

func (s *storeProbe) checkpointTimes() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.checkpoints...)
}

type fileProbe struct {
	wal.File
	s *storeProbe
}

func (f *fileProbe) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.s.bytes.Add(int64(n))
	return n, err
}

func (f *fileProbe) Sync() error {
	start := f.s.clock.Now()
	err := f.File.Sync()
	f.s.syncNanos.Add(int64(f.s.clock.Now().Sub(start)))
	f.s.syncs.Add(1)
	return err
}

// selectProbe wraps one client's site selector. It always remembers the
// last selection, which is how the correctness gate tells a site chosen
// by the USLA select from one the client picked some other way; with
// timed set it also accumulates the time spent selecting.
type selectProbe struct {
	gruber.Selector
	clock vtime.Clock
	timed bool

	// Each probe belongs to one client goroutine, which sends its jobs
	// one at a time, so these fields need no lock.
	lastSite string
	lastOK   bool
	spent    time.Duration
}

func (p *selectProbe) Select(loads []gruber.SiteLoad, cpus int) (string, bool) {
	var start time.Time
	if p.timed {
		start = p.clock.Now()
	}
	site, ok := p.Selector.Select(loads, cpus)
	if p.timed {
		p.spent += p.clock.Now().Sub(start)
	}
	p.lastSite, p.lastOK = site, ok
	return site, ok
}

// badSelector always names a site outside the grid. The self-test
// injects it to prove the correctness gate catches a corrupted decision.
type badSelector struct{}

func (badSelector) Name() string { return "bad" }

func (badSelector) Select([]gruber.SiteLoad, int) (string, bool) { return "no-such-site", true }
