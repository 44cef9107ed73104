package pbs

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// limitConn is one session's transport for the limit-parity table: a raw
// plain connection, or one enveloped stream of an already mux-negotiated
// connection. send opens the mux stream on its first frame.
type limitConn struct {
	t      *testing.T
	conn   net.Conn
	mux    bool
	id     uint64
	opened bool
}

func (c *limitConn) send(typ byte, payload []byte) {
	c.t.Helper()
	var b []byte
	if c.mux {
		var flags uint64
		if !c.opened {
			flags = muxFlagOpen
		}
		b = muxAppendFrame(nil, c.id, flags, typ, payload)
	} else {
		b = appendFrame(nil, typ, payload)
	}
	c.opened = true
	if _, err := c.conn.Write(b); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

func (c *limitConn) recv() (byte, []byte) {
	c.t.Helper()
	if c.mux {
		return readMuxFrame(c.t, c.conn, c.id)
	}
	typ, payload, err := readFrame(c.conn)
	if err != nil {
		c.t.Fatalf("readFrame: %v", err)
	}
	return typ, payload
}

// estimate opens a legacy session: one msgEstimate out, its reply back
// through the initiator engine, which returns the first round frame.
func (c *limitConn) estimate(local []uint64, opt *Options) []Frame {
	c.t.Helper()
	is, opening, err := NewInitiatorSession(local, opt)
	if err != nil {
		c.t.Fatal(err)
	}
	for _, f := range opening {
		c.send(f.Type, f.Payload)
	}
	typ, payload := c.recv()
	if typ != msgEstimateReply {
		c.t.Fatalf("estimate answered with type %d", typ)
	}
	out, _, err := is.Step(typ, payload)
	if err != nil {
		c.t.Fatal(err)
	}
	if len(out) != 1 || out[0].Type != msgRound {
		c.t.Fatalf("expected one round frame, got %+v", out)
	}
	return out
}

// TestServerLimitParity drives every per-session limit and protocol
// violation once over a plain connection and once over an enveloped mux
// stream: both must answer with the same coded msgError and book the same
// stats deltas. The mux side keeps its connection alive, so a follow-up
// sync on a fresh stream must still complete.
func TestServerLimitParity(t *testing.T) {
	base := testBaseSet(600)
	opt := &Options{Seed: 9701}
	local, _ := clientSetAndDiff(base, 1)

	cases := []struct {
		name  string
		sopt  ServerOptions
		drive func(c *limitConn)
		frag  string
	}{
		{
			name: "ByteBudget",
			sopt: ServerOptions{SessionByteBudget: 1 << 16},
			drive: func(c *limitConn) {
				c.send(msgRound, make([]byte, 128<<10))
			},
			frag: "session byte budget exceeded",
		},
		{
			name: "RoundBudget",
			sopt: ServerOptions{SessionMaxRounds: 1},
			drive: func(c *limitConn) {
				round := c.estimate(local, opt)
				c.send(round[0].Type, round[0].Payload)
				if typ, _ := c.recv(); typ != msgRoundReply {
					c.t.Fatalf("round 1 answered with type %d", typ)
				}
				c.send(round[0].Type, round[0].Payload)
			},
			frag: "session round budget exceeded",
		},
		{
			name:  "UnknownType",
			drive: func(c *limitConn) { c.send(99, []byte{1, 2, 3}) },
			frag:  "unexpected message type 99",
		},
		{
			name: "DuplicateEstimate",
			drive: func(c *limitConn) {
				c.estimate(local, opt)
				_, opening, err := NewInitiatorSession(local, opt)
				if err != nil {
					c.t.Fatal(err)
				}
				c.send(opening[0].Type, opening[0].Payload)
			},
			frag: "duplicate estimate",
		},
		{
			name:  "RoundBeforeEstimate",
			drive: func(c *limitConn) { c.send(msgRound, []byte{1, 2, 3}) },
			frag:  "round before estimation",
		},
		{
			name:  "ClientError",
			drive: func(c *limitConn) { c.send(msgError, []byte("client gave up")) },
			frag:  "client gave up",
		},
		{
			name:  "UnknownSet",
			drive: func(c *limitConn) { c.send(msgHello, []byte("no-such-set")) },
			frag:  `unknown set "no-such-set"`,
		},
		{
			// The one row where the loops used to disagree: a mux stream
			// silently ignored a second bare hello before its session
			// started, while a plain connection failed it.
			name: "SecondHelloBeforeStart",
			drive: func(c *limitConn) {
				c.send(msgHello, []byte(DefaultSetName))
				c.send(msgHello, []byte(DefaultSetName))
			},
			frag: "hello after session start",
		},
	}

	for _, tc := range cases {
		for _, mux := range []bool{false, true} {
			mode := "Plain"
			if mux {
				mode = "Mux"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				sopt := tc.sopt
				sopt.Protocol = opt
				srv, addr := startTestServer(t, base, sopt)
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				c := &limitConn{t: t, conn: conn, mux: mux, id: 3}
				if mux {
					local0, _ := clientSetAndDiff(base, 0)
					muxRawNegotiate(t, conn, local0, opt, featureMux)
					waitForCompleted(t, srv, 1)
				}
				before := srv.Stats()

				tc.drive(c)
				typ, payload := c.recv()
				if typ != msgError {
					t.Fatalf("violation answered with type %d, want msgError", typ)
				}
				pe := parsePeerErrPayload(payload)
				if pe.Code != ErrCodeRejected || !strings.Contains(pe.Msg, tc.frag) {
					t.Fatalf("peer error %q with code %q, want code %q containing %q",
						pe.Msg, pe.Code, ErrCodeRejected, tc.frag)
				}

				// The error frame may land before the server books the
				// failure; poll for the deltas.
				var failed, rejected, completed int64
				deadline := time.Now().Add(2 * time.Second)
				for {
					st := srv.Stats()
					failed = st.Failed - before.Failed
					rejected = st.Rejected - before.Rejected
					completed = st.Completed - before.Completed
					if (failed == 1 && st.Active == 0) || time.Now().After(deadline) {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if failed != 1 || rejected != 0 || completed != 0 {
					t.Fatalf("deltas failed=%d rejected=%d completed=%d, want 1/0/0", failed, rejected, completed)
				}
				if mux {
					local2, _ := clientSetAndDiff(base, 2)
					muxRawSync(t, conn, 5, local2, opt)
				}
			})
		}
	}
}

// TestMuxIdleStreamSweptUnderSiblingTraffic pins the per-stream idle
// sweep: a stream opened with a bare hello and then abandoned must be
// timed out even while the connection stays busy with frames that carry
// no session (closes for streams already gone) — those frames keep the
// connection-level read deadline from ever firing.
func TestMuxIdleStreamSweptUnderSiblingTraffic(t *testing.T) {
	base := testBaseSet(500)
	opt := &Options{Seed: 9801}
	srv, addr := startTestServer(t, base, ServerOptions{Protocol: opt, IdleTimeout: 200 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	local0, _ := clientSetAndDiff(base, 0)
	muxRawNegotiate(t, conn, local0, opt, featureMux)
	waitForCompleted(t, srv, 1)

	if _, err := conn.Write(muxAppendFrame(nil, 7, muxFlagOpen, msgHello, []byte(DefaultSetName))); err != nil {
		t.Fatal(err)
	}
	type frame struct {
		typ  byte
		body []byte
	}
	got := make(chan frame, 1)
	go func() {
		typ, payload, err := readFrame(conn)
		if err != nil {
			close(got)
			return
		}
		id, _, body, err := parseMuxPayload(payload)
		if err != nil || id != 7 {
			close(got)
			return
		}
		got <- frame{typ, body}
	}()

	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	end := time.Now().Add(1500 * time.Millisecond)
	var swept bool
	for time.Now().Before(end) {
		<-tick.C
		if _, err := conn.Write(muxAppendFrame(nil, 99, muxFlagClose, msgStreamClose, nil)); err != nil {
			t.Fatalf("sibling traffic: %v", err)
		}
		if !swept {
			select {
			case f, ok := <-got:
				if !ok {
					t.Fatal("connection failed before the idle stream was swept")
				}
				pe := parsePeerErrPayload(f.body)
				if f.typ != msgError || pe.Code != ErrCodeRejected || !strings.Contains(pe.Msg, "stream idle timeout") {
					t.Fatalf("stream 7 got type %d %q (code %q), want a stream idle timeout", f.typ, pe.Msg, pe.Code)
				}
				swept = true
			default:
			}
			continue
		}
		if st := srv.Stats(); st.StreamsOpen == 0 && st.Active == 0 {
			// Still open: a fresh stream completes on the same connection.
			local2, _ := clientSetAndDiff(base, 2)
			muxRawSync(t, conn, 8, local2, opt)
			return
		}
	}
	st := srv.Stats()
	t.Fatalf("after %v of sibling traffic: swept=%v StreamsOpen=%d Active=%d", 1500*time.Millisecond, swept, st.StreamsOpen, st.Active)
}

// fuzzServer is the server FuzzServerConn runs each input against: the
// shared set under DefaultSetName and under a tenant-scoped name, with a
// short idle timeout, a small stream cap, and a byte budget tight enough
// for mutated frames to hit it.
func fuzzServer(t testing.TB, ss *SharedSet) *Server {
	srv := NewServer(ServerOptions{
		Protocol:          &ss.opt,
		IdleTimeout:       50 * time.Millisecond,
		MaxStreams:        4,
		SessionByteBudget: 1 << 16,
	})
	for _, name := range []string{DefaultSetName, "t/s"} {
		if err := srv.RegisterShared(name, ss); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// recordServerConn runs client against a fresh fuzz server's connection
// loop over a pipe and returns every byte the client wrote: a replayable
// seed input for FuzzServerConn.
func recordServerConn(t testing.TB, ss *SharedSet, client func(conn net.Conn) error) []byte {
	srv := fuzzServer(t, ss)
	cli, conn := net.Pipe()
	done := make(chan struct{})
	go func() { srv.serveConn(conn); close(done) }()
	rc := &recordConn{Conn: cli}
	err := client(rc)
	cli.Close()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return rc.writes()
}

// FuzzServerConn fuzzes the server's connection loop as a state machine:
// arbitrary client bytes — plain sessions, a mux upgrade, enveloped
// streams — go to serveConn over a pipe while a goroutine drains its
// replies. Whatever the input, once it ends the loop must return and leave
// no session slot, mux stream, or tenant session charged.
func FuzzServerConn(f *testing.F) {
	opt := &Options{Seed: 9901}
	base := testBaseSet(300)
	ss, err := NewSharedSet(base, opt)
	if err != nil {
		f.Fatal(err)
	}
	local, _ := clientSetAndDiff(base, 1)
	set, err := NewSet(local, WithOptions(*opt))
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	// A legacy plain session naming a tenant's set, a fast plain one, and
	// a mux-negotiated connection carrying two streams.
	f.Add(recordServerConn(f, ss, func(conn net.Conn) error {
		_, err := set.Sync(ctx, conn, WithSetName("t/s"))
		return err
	}))
	f.Add(recordServerConn(f, ss, func(conn net.Conn) error {
		_, err := set.Sync(ctx, conn, WithFastSync(true))
		return err
	}))
	f.Add(recordServerConn(f, ss, func(conn net.Conn) error {
		mc := NewMuxConn(conn)
		for i := 0; i < 2; i++ {
			if err := muxSyncClient(mc, base, opt, i); err != nil {
				return err
			}
		}
		return nil
	}))
	f.Add([]byte{})
	f.Add(appendFrame(nil, msgHello, []byte("no-such-set")))

	f.Fuzz(func(t *testing.T, in []byte) {
		srv := fuzzServer(t, ss)
		cli, conn := net.Pipe()
		done := make(chan struct{})
		go func() { srv.serveConn(conn); close(done) }()
		go io.Copy(io.Discard, cli)
		cli.Write(in) // fails early once the loop hangs up
		cli.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("connection loop did not return after its input ended")
		}
		if st := srv.Stats(); st.Active != 0 || st.StreamsOpen != 0 {
			t.Fatalf("leaked slots: Active=%d StreamsOpen=%d", st.Active, st.StreamsOpen)
		}
		for _, tenant := range []string{"", "t"} {
			if _, _, sessions := srv.TenantUsage(tenant); sessions != 0 {
				t.Fatalf("tenant %q still charged %d sessions", tenant, sessions)
			}
		}
	})
}
