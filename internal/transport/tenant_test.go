// Multi-tenant ingestion tests: the tenant handshake on the wire, the
// aggregate credit pool, token-bucket throttling, tenant-aware sink
// routing, and the NDJSON tenant hello / degraded status lines.
package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/harness"
)

// testAuth builds an authenticator from a token → TenantAuth table; a
// nil token (no-token connections) maps to the "" key.
func testAuth(table map[string]TenantAuth) func([]byte) (TenantAuth, error) {
	return func(token []byte) (TenantAuth, error) {
		auth, ok := table[string(token)]
		if !ok {
			return TenantAuth{}, fmt.Errorf("unknown token")
		}
		return auth, nil
	}
}

// tenantRecordSink records which tenant each batch was attributed to.
type tenantRecordSink struct {
	mu      sync.Mutex
	byTen   map[string]int
	batches int
}

func (s *tenantRecordSink) SubmitBatch(evs []event.Event) {
	s.SubmitTenantBatch("", evs)
}

func (s *tenantRecordSink) SubmitTenantBatch(tenant string, evs []event.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byTen == nil {
		s.byTen = make(map[string]int)
	}
	s.byTen[tenant] += len(evs)
	s.batches++
}

func (s *tenantRecordSink) counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.byTen))
	for k, v := range s.byTen {
		out[k] = v
	}
	return out
}

func tenantOf(st ServerStats, name string) (TenantStats, bool) {
	for _, ts := range st.Tenants {
		if ts.Tenant == name {
			return ts, true
		}
	}
	return TenantStats{}, false
}

// TestTenantHandshake drives the version-2 preface end to end: the
// token resolves to a tenant, batches are attributed to it in the sink
// and the counters, and a plain version-1 connection on the same
// server runs as the anonymous tenant.
func TestTenantHandshake(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &tenantRecordSink{}
	srv := startServer(t, ServerConfig{
		Sink:   sink,
		Window: 256,
		Authenticate: testAuth(map[string]TenantAuth{
			"tok-alpha": {Tenant: "alpha"},
			"":          {Tenant: ""},
		}),
	})

	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 64, Token: "tok-alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitBatch(genEvents(500)); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Close(); err != nil || st.Sent != 500 || st.Accepted != 500 {
		t.Fatalf("tenant client close: %+v, %v", st, err)
	}

	anon, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := anon.SubmitBatch(genEvents(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := anon.Close(); err != nil {
		t.Fatal(err)
	}

	counts := sink.counts()
	if counts["alpha"] != 500 || counts[""] != 100 {
		t.Fatalf("sink attribution %v, want alpha:500 \"\" :100", counts)
	}
	st := srv.Stats()
	alpha, ok := tenantOf(st, "alpha")
	if !ok || alpha.Events != 500 {
		t.Fatalf("tenant alpha stats %+v (found %v), want 500 events", alpha, ok)
	}
	if anonStats, ok := tenantOf(st, ""); !ok || anonStats.Events != 100 {
		t.Fatalf("anonymous tenant stats %+v (found %v), want 100 events", anonStats, ok)
	}
}

// TestTenantDurableHandshake runs a durable session over the tenant
// preface: hello carries session + token, the ledger drains, and a
// second connection of the same session dedups retransmits.
func TestTenantDurableHandshake(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{
		Sink:   sink,
		Window: 256,
		Authenticate: testAuth(map[string]TenantAuth{
			"tok-alpha": {Tenant: "alpha"},
		}),
	})
	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 32, Session: 7, Token: "tok-alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitBatch(genEvents(128)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 128 || st.Accepted != 128 {
		t.Fatalf("durable tenant ledger %+v, want Sent == Accepted == 128", st)
	}
	if got := len(sink.snapshot()); got != 128 {
		t.Fatalf("sink has %d events, want 128", got)
	}
}

// TestTenantWindowPool pins the aggregate credit cap: with a tenant
// pool of 1.5 connections' worth, the first connection carves a full
// window, the second the remainder, and the third is rejected.
func TestTenantWindowPool(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{
		Sink:   sink,
		Window: 64,
		Authenticate: testAuth(map[string]TenantAuth{
			"tok-alpha": {Tenant: "alpha", Quota: TenantQuota{Window: 96}},
		}),
	})

	dialTenant := func() (*rawConn, []byte, error) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		r := newRawConn(conn)
		if err := r.write([]byte{Magic, ProtocolVersionTenant}); err != nil {
			t.Fatal(err)
		}
		hello := AppendFrame(nil, FrameHello, append([]byte{0}, "tok-alpha"...))
		if err := r.write(hello); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := r.next()
		if err != nil {
			return r, nil, err
		}
		if typ == FrameError {
			return r, nil, fmt.Errorf("server error: %s", payload)
		}
		if typ != FrameHelloAck {
			t.Fatalf("frame 0x%02x, want hello ack", typ)
		}
		grant, err := r.expect(FrameCredit)
		if err != nil {
			return r, nil, err
		}
		return r, grant, nil
	}
	grantOf := func(p []byte) uint64 {
		n, _ := binary.Uvarint(p)
		return n
	}

	_, g1, err := dialTenant()
	if err != nil {
		t.Fatal(err)
	}
	if grantOf(g1) != 64 {
		t.Fatalf("first carve %d, want the full per-connection window 64", grantOf(g1))
	}
	_, g2, err := dialTenant()
	if err != nil {
		t.Fatal(err)
	}
	if grantOf(g2) != 32 {
		t.Fatalf("second carve %d, want the pool remainder 32", grantOf(g2))
	}
	if _, _, err := dialTenant(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("third connection error %v, want aggregate-window rejection", err)
	}
	st := srv.Stats()
	alpha, _ := tenantOf(st, "alpha")
	if alpha.ConnsRejected != 1 || alpha.CreditCarved != 96 {
		t.Fatalf("tenant stats %+v, want 1 rejection and 96 carved", alpha)
	}
}

// TestTenantRateLimit drives a tenant well past its sustained rate and
// checks the token bucket throttles credit grant-backs: every event is
// still accepted (the wire is lossless), but the tenant accumulates
// throttle wait and the elapsed time reflects the rate.
func TestTenantRateLimit(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{
		Sink:   sink,
		Window: 256,
		Authenticate: testAuth(map[string]TenantAuth{
			"tok-slow": {Tenant: "slow", Quota: TenantQuota{Rate: 4000, Burst: 200}},
		}),
	})
	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), BatchEvents: 100, Token: "tok-slow"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.SubmitBatch(genEvents(1200)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if st.Sent != 1200 || st.Accepted != 1200 {
		t.Fatalf("rate-limited stream lost events: %+v", st)
	}
	// 1200 events at 4000/s with a 200-event burst needs ≥ ~200ms of
	// throttling; leave slack for scheduler noise but require some.
	if elapsed < 100*time.Millisecond {
		t.Fatalf("1200 events at rate 4000 finished in %v; bucket did not throttle", elapsed)
	}
	slow, _ := tenantOf(srv.Stats(), "slow")
	if slow.ThrottledBatches == 0 || slow.ThrottleWait == 0 {
		t.Fatalf("tenant stats %+v, want throttled batches and wait > 0", slow)
	}
	if slow.Events != 1200 {
		t.Fatalf("tenant accepted %d events, want 1200", slow.Events)
	}
}

// TestTenantAuthFailure rejects a bad token with FrameError before any
// credit is granted, and counts it.
func TestTenantAuthFailure(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{
		Sink:         sink,
		Window:       64,
		Authenticate: testAuth(map[string]TenantAuth{"tok-good": {Tenant: "good"}}),
	})
	_, err := Dial(ClientConfig{Addr: srv.Addr().String(), Token: "tok-bad"})
	if err == nil || !strings.Contains(err.Error(), "authentication failed") {
		t.Fatalf("dial with bad token: %v, want authentication failure", err)
	}
	if st := srv.Stats(); st.AuthFailures != 1 {
		t.Fatalf("AuthFailures = %d, want 1", st.AuthFailures)
	}
}

// TestTenantHelloFirst enforces the version-2 opening rule: any frame
// before the hello is a protocol error.
func TestTenantHelloFirst(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	srv := startServer(t, ServerConfig{
		Sink:         sink,
		Window:       64,
		Authenticate: testAuth(map[string]TenantAuth{"tok": {Tenant: "x"}}),
	})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := newRawConn(conn)
	if err := r.write([]byte{Magic, ProtocolVersionTenant}); err != nil {
		t.Fatal(err)
	}
	if err := r.write(AppendFrame(nil, FrameStatsReq, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.expect(FrameError); err != nil {
		t.Fatalf("stats before hello: %v, want FrameError", err)
	}
}

// TestNDJSONTenantHello sends the {"token":...} first line and checks
// the ok status line, tenant attribution and rate accounting.
func TestNDJSONTenantHello(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &tenantRecordSink{}
	srv := startServer(t, ServerConfig{
		Sink:   sink,
		Window: 64,
		Authenticate: testAuth(map[string]TenantAuth{
			"tok-alpha": {Tenant: "alpha"},
			"":          {Tenant: ""},
		}),
	})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "{\"token\":\"tok-alpha\"}\n")
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Status string `json:"status"`
		Tenant string `json:"tenant"`
	}
	if err := json.Unmarshal([]byte(line), &status); err != nil {
		t.Fatalf("status line %q: %v", line, err)
	}
	if status.Status != "ok" || status.Tenant != "alpha" {
		t.Fatalf("status line %q, want ok/alpha", line)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(conn, "{\"seq\":%d,\"type\":1,\"ts\":%d,\"kind\":0}\n", i+1, (i+1)*1000)
	}
	conn.(*net.TCPConn).CloseWrite()
	// Drain until EOF so the server has flushed everything.
	for {
		if _, err := br.ReadString('\n'); err != nil {
			break
		}
	}
	if counts := sink.counts(); counts["alpha"] != 10 {
		t.Fatalf("ndjson tenant attribution %v, want alpha:10", counts)
	}
	alpha, _ := tenantOf(srv.Stats(), "alpha")
	if alpha.Events != 10 {
		t.Fatalf("tenant alpha events %d, want 10", alpha.Events)
	}
}

// TestNDJSONHelloStrictAuth: the hello line is judged before any
// authentication, so an authenticator that rejects the nil token still
// admits a hello with a good token — and still rejects a connection
// whose first line is an event, as the anonymous tenant.
func TestNDJSONHelloStrictAuth(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &tenantRecordSink{}
	srv := startServer(t, ServerConfig{
		Sink:         sink,
		Authenticate: testAuth(map[string]TenantAuth{"tok-alpha": {Tenant: "alpha"}}),
	})
	exchange := func(lines string) string {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(lines)); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		reply, err := io.ReadAll(conn)
		if err != nil {
			t.Fatal(err)
		}
		return string(reply)
	}

	const event = "{\"seq\":1,\"type\":1,\"ts\":1000,\"kind\":0}\n"
	if reply := exchange("{\"token\":\"tok-alpha\"}\n" + event); reply != "{\"status\":\"ok\",\"tenant\":\"alpha\"}\n" {
		t.Fatalf("hello reply %q, want the ok line for alpha alone", reply)
	}
	if st := srv.Stats(); st.AuthFailures != 0 {
		t.Fatalf("AuthFailures = %d after a good hello, want 0", st.AuthFailures)
	}
	if counts := sink.counts(); counts["alpha"] != 1 || len(counts) != 1 {
		t.Fatalf("tenant attribution %v, want alpha:1", counts)
	}

	reply := exchange(event)
	if !strings.HasPrefix(reply, "{\"error\":") || !strings.Contains(reply, "authentication failed") {
		t.Fatalf("event-first reply %q, want an authentication error line", reply)
	}
	if st := srv.Stats(); st.AuthFailures != 1 {
		t.Fatalf("AuthFailures = %d after an anonymous connection, want 1", st.AuthFailures)
	}
	if counts := sink.counts(); counts["alpha"] != 1 || len(counts) != 1 {
		t.Fatalf("tenant attribution %v after the rejected connection, want alpha:1", counts)
	}
}

// ndjsonFlakyJournal mirrors harden_test's flakyJournal for the NDJSON
// degraded-status-line test.
type ndjsonFlakyJournal struct {
	mu       sync.Mutex
	degraded bool
	seq      uint64
}

func (j *ndjsonFlakyJournal) setDegraded(v bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.degraded = v
}

func (j *ndjsonFlakyJournal) Append(session, batchSeq uint64, count int, maxTS event.Time, payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.degraded {
		return 0, ErrJournalDegraded
	}
	j.seq++
	return j.seq, nil
}

func (j *ndjsonFlakyJournal) Commit(seq uint64) error { return nil }

// TestNDJSONDegradedStatusLines regresses the silent-lossy hole: a
// plain-text producer must learn about a DegradeLossy episode. The
// server emits {"status":"degraded"} when the journal degrades and
// {"status":"durable"} when it restores — the NDJSON equivalent of the
// binary FlagDegraded acks.
func TestNDJSONDegradedStatusLines(t *testing.T) {
	harness.VerifyNoLeaks(t)
	sink := &collectSink{}
	journal := &ndjsonFlakyJournal{}
	srv := startServer(t, ServerConfig{Sink: sink, Journal: journal, Window: 64})

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	statusCh := make(chan string, 16)
	go func() {
		defer close(statusCh)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			var st struct {
				Status string `json:"status"`
			}
			if json.Unmarshal([]byte(line), &st) == nil && st.Status != "" {
				statusCh <- st.Status
			}
		}
	}()
	sendOne := func(seq int) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "{\"seq\":%d,\"type\":1,\"ts\":%d,\"kind\":0}\n", seq, seq*1000); err != nil {
			t.Fatal(err)
		}
	}
	waitStatus := func(want string) {
		t.Helper()
		select {
		case got, ok := <-statusCh:
			if !ok || got != want {
				t.Fatalf("status line %q (open %v), want %q", got, ok, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %q status line within 5s", want)
		}
	}
	waitEvents := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(sink.snapshot()) < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := len(sink.snapshot()); got < want {
			t.Fatalf("sink has %d events, want >= %d", got, want)
		}
	}

	sendOne(1) // healthy: no status line expected
	waitEvents(1)
	journal.setDegraded(true)
	sendOne(2)
	waitStatus("degraded")
	sendOne(3) // still degraded: no repeat line
	waitEvents(3)
	journal.setDegraded(false)
	sendOne(4)
	waitStatus("durable")

	conn.(*net.TCPConn).CloseWrite()
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.snapshot()) < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Degrade-to-lossy still accepts: all four events arrive.
	if got := len(sink.snapshot()); got != 4 {
		t.Fatalf("sink has %d events, want 4", got)
	}
	if st := srv.Stats(); st.LostDurability != 2 {
		t.Fatalf("LostDurability = %d, want 2 (events 2 and 3)", st.LostDurability)
	}
	select {
	case got, ok := <-statusCh:
		if ok {
			t.Fatalf("unexpected extra status line %q", got)
		}
	case <-time.After(time.Second):
	}
}
