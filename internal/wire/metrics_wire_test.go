package wire

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"digruber/internal/tsdb"
	"digruber/internal/vtime"
)

// statsTap records the server's Stats from inside every write the
// server makes on an accepted connection, i.e. while a reply is leaving.
type statsTap struct {
	Listener
	srv  *Server
	mu   sync.Mutex
	seen []Stats
}

func (t *statsTap) Accept() (Conn, error) {
	c, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{Conn: c, tap: t}, nil
}

type tapConn struct {
	Conn
	tap *statsTap
}

func (c tapConn) Write(p []byte) (int, error) {
	st := c.tap.srv.Stats()
	c.tap.mu.Lock()
	c.tap.seen = append(c.tap.seen, st)
	c.tap.mu.Unlock()
	return c.Conn.Write(p)
}

// TestStatsSettledBeforeReplyLeaves: every counter a request moves,
// in-flight and lane in-flight included, is final before its response
// is written, so a caller holding its reply reads settled Stats.
func TestStatsSettledBeforeReplyLeaves(t *testing.T) {
	clock := vtime.NewReal()
	mem := NewMem()
	srv := NewServer("server-node", Instant(), clock)
	srv.ReserveLane(1, 4, "mesh")
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	Handle(srv, "mesh", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &statsTap{Listener: l, srv: srv}
	go srv.Serve(tap)
	t.Cleanup(func() { srv.Close(); l.Close() })
	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node",
		Addr: "dp-0", Transport: mem, Clock: clock,
	})
	t.Cleanup(cli.Close)

	for i, method := range []string{"echo", "mesh", "echo", "mesh"} {
		if _, err := Call[echoReq, echoResp](cli, method, echoReq{Msg: "x"}, time.Second); err != nil {
			t.Fatal(err)
		}
		st := srv.Stats()
		if st.Completed != int64(i+1) || st.InFlight != 0 || st.LaneInFlight != 0 {
			t.Fatalf("after call %d (%s): stats = %+v", i+1, method, st)
		}
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.seen) == 0 {
		t.Fatal("no server write observed")
	}
	for _, st := range tap.seen {
		if st.InFlight != 0 || st.LaneInFlight != 0 {
			t.Fatalf("reply written with InFlight=%d LaneInFlight=%d", st.InFlight, st.LaneInFlight)
		}
	}
}

// TestClientMetricsOutcomes: a shared ClientMetrics partitions logical
// call outcomes by failure class and counts attempts including retries.
func TestClientMetricsOutcomes(t *testing.T) {
	clock := vtime.NewReal()
	mem := NewMem()
	srv := NewServer("server-node", Instant(), clock)
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	Handle(srv, "boom", func(r echoReq) (echoResp, error) { return echoResp{}, errors.New("app error") })

	m := NewClientMetrics()
	mkClient := func() *Client {
		c := NewClient(ClientConfig{
			Node: "client-node", ServerNode: "server-node",
			Addr: "dp-0", Transport: mem, Clock: clock, Metrics: m,
		})
		t.Cleanup(c.Close)
		return c
	}

	// Two clients share the same counter set.
	c1, c2 := mkClient(), mkClient()
	if _, err := Call[echoReq, echoResp](c1, "echo", echoReq{Msg: "a"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[echoReq, echoResp](c2, "echo", echoReq{Msg: "b"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[echoReq, echoResp](c1, "boom", echoReq{}, time.Second); err == nil {
		t.Fatal("boom should fail")
	}
	// Refused: nothing listens there.
	bad := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "nowhere",
		Addr: "nowhere", Transport: mem, Clock: clock, Metrics: m,
		Retry: RetryPolicy{Attempts: 3},
	})
	t.Cleanup(bad.Close)
	if _, err := bad.Call("echo", nil, time.Second); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}

	st := m.Stats()
	if st.Calls != 4 || st.OK != 2 || st.Other != 1 || st.Refused != 1 {
		t.Fatalf("stats = %+v, want calls=4 ok=2 other=1 refused=1", st)
	}
	// The refused call retried twice: 3 + 3 + 1(boom had 1) ... attempts:
	// echo+echo+boom are 1 attempt each, refused call is 3.
	if st.Attempts != 6 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want attempts=6 retries=2", st)
	}

	reg := tsdb.New(0)
	m.Register(reg, "clients/wire")
	reg.Sample(clock.Now())
	if p, ok := reg.Latest("clients/wire/calls"); !ok || p.V != 4 {
		t.Fatalf("clients/wire/calls = %v (ok=%v), want 4", p.V, ok)
	}
}

// TestNilClientMetricsIsFree: un-instrumented clients and nil receivers
// take every path without panicking.
func TestNilClientMetricsIsFree(t *testing.T) {
	var m *ClientMetrics
	m.onCall()
	m.onAttempt()
	m.onRetry()
	m.onResult(nil)
	m.onResult(fmt.Errorf("x"))
	m.Register(tsdb.New(0), "p")
	if st := m.Stats(); st != (ClientStats{}) {
		t.Fatalf("nil metrics stats = %+v", st)
	}
}
