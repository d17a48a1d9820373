package wire

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/writeset"
)

// Fully populated sample frames: every field of every frame type — and
// of every nested message — is nonzero, so the skew tests exercise
// each table entry, and the fuzzers start from frames that reach every
// parse path.

func sampleSpan() dtrace.SpanContext {
	var sc dtrace.SpanContext
	sc.Trace[0], sc.Trace[15] = 0xab, 0xcd
	sc.Span[0] = 0xef
	return sc
}

func sampleWS() *writeset.WriteSet {
	sc := sampleSpan()
	return &writeset.WriteSet{Trace: &sc, Items: []writeset.Item{
		{Table: "kv", Key: "k1", Op: writeset.OpUpdate, Row: []any{int64(-7), "v", 2.5, true, nil}},
		{Table: "kv", Key: "k2", Op: writeset.OpDelete},
	}}
}

func sampleResult() *sql.Result {
	return &sql.Result{
		Columns:  []string{"k", "v"},
		Rows:     [][]any{{int64(1), "one"}, {int64(2), nil}},
		Affected: 2,
	}
}

func clientLinkFrames() []wireFrame {
	return []wireFrame{
		&clientHello{SessionID: "alice"},
		&clientRequest{Seq: 3, Op: "exec", Name: "txn", Tables: []string{"kv", "orders"}, Begin: true, TxnName: "tpcw.home",
			Trace: sampleSpan(), SQL: "SELECT v FROM kv WHERE k = ?", Params: []any{int64(1), "s", 1.5, false, nil}},
		&clientResponse{Seq: 3, Err: "boom", ErrCode: "conflict", Result: sampleResult(), Snapshot: 9,
			Version: 10, ReadOnly: true, WriteTables: []string{"kv"}, ReadTables: []string{"kv", "orders"}, Open: true},
	}
}

func replicaLinkFrames() []wireFrame {
	return []wireFrame{
		&replicaRequest{Seq: 4, Op: "exec", Begin: true, MinVersion: 8, Trace: sampleSpan(), TxnID: 12,
			SQL: "UPDATE kv SET v = ? WHERE k = ?", Params: []any{"x", int64(3)}, Eager: true},
		&replicaResponse{Seq: 4, Err: "boom", ErrCode: "crashed", TxnID: 12, Snapshot: 8, Result: sampleResult(),
			Commit: replica.CommitResult{Version: 11, ReadOnly: true, WrittenTables: []string{"kv"},
				TableVersions: map[string]uint64{"kv": 11, "orders": 7}},
			Touched: []string{"kv"}, Version: 11, Active: 2, Crashed: true, Ready: true},
	}
}

func certLinkFrames() []wireFrame {
	return []wireFrame{
		&certHello{Kind: "sub", ReplicaID: 2, VLocal: 40, Shards: []int{0, 3}},
		&certRequest{Seq: 5, Op: "certify", Origin: 1, TxnID: 77, Snapshot: 40, WS: sampleWS(), Trace: sampleSpan(),
			ReplicaID: 1, Version: 41, After: 39, Shards: []int{1}},
		&certResponse{Seq: 5, Err: "boom", Decision: certifier.Decision{Commit: true, Version: 41},
			History: []certifier.Refresh{{TxnID: 77, Version: 41, Origin: -1, WS: sampleWS()}},
			Version: 41, TableVers: map[string]uint64{"kv": 41}},
		&refreshBatch{Refreshes: []certifier.Refresh{{TxnID: 77, Version: 41, Origin: 1, WS: sampleWS()}}},
	}
}

// capturedFrames holds frame payloads recorded off real links, per
// link class, in both directions.
type capturedFrames struct {
	client, replica, cert [][]byte
}

var (
	captureOnce sync.Once
	captured    capturedFrames
)

// captureFrames runs a small deployment over loopback — a session that
// registers a transaction, commits an update, commits a traced read and
// update, commits a transaction that ran no statement and aborts one
// that did — and returns every frame its links carried. Captured once
// per process.
func captureFrames(tb testing.TB) capturedFrames {
	captureOnce.Do(func() {
		var rec linkRecorder
		d := newDeployment(tb, 2, core.Fine, WithDialer(rec.dial))
		c, err := Dial(d.gateway.Addr(), "capture", WithDialer(rec.dial))
		if err != nil {
			tb.Fatal(err)
		}
		steps := []func() error{
			func() error { return c.RegisterTxn("update", []string{"kv"}) },
			func() error { return c.Begin("update") },
			func() error { _, err := c.Exec(`UPDATE kv SET v = ? WHERE k = ?`, "captured", int64(1)); return err },
			func() error { _, _, err := c.Commit(); return err },
			func() error { return c.BeginCtx("", []string{"kv"}, sampleSpan()) },
			func() error { _, err := c.Exec(`SELECT k, v FROM kv WHERE k < ?`, int64(3)); return err },
			func() error { _, err := c.Exec(`UPDATE kv SET v = ? WHERE k = ?`, "traced", int64(2)); return err },
			func() error { _, _, err := c.Commit(); return err },
			func() error { return c.Begin("update") },
			func() error { _, _, err := c.Commit(); return err },
			func() error { return c.Begin("") },
			func() error { _, err := c.Exec(`SELECT v FROM kv WHERE k = ?`, int64(2)); return err },
			c.Abort,
		}
		for _, step := range steps {
			if err := step(); err != nil {
				tb.Fatal(err)
			}
		}
		c.Close()
		captured = rec.frames()
	})
	return captured
}

// linkRecorder is a dialer that records every connection it opens.
type linkRecorder struct {
	mu    sync.Mutex
	conns []*recordingConn
}

func (l *linkRecorder) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	rc := &recordingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, rc)
	l.mu.Unlock()
	return rc, nil
}

// frames returns the frame payloads the recorded connections carried
// so far in both directions, by link class.
func (l *linkRecorder) frames() capturedFrames {
	both := func(link string) [][]byte {
		w, r := l.streams(link)
		return append(w, r...)
	}
	return capturedFrames{client: both(clientPreamble), replica: both(replicaPreamble), cert: both(certPreamble)}
}

// streams returns the frame payloads written and read so far on the
// recorded connections of one link class, its preamble stripped.
func (l *linkRecorder) streams(link string) (written, read [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rc := range l.conns {
		w, r := rc.streams()
		if len(w) < len(link) || string(w[:len(link)]) != link {
			continue
		}
		written = append(written, splitFrames(w[len(link):])...)
		read = append(read, splitFrames(r)...)
	}
	return written, read
}

// splitFrames cuts a recorded byte stream into frame payloads; a
// partial frame at the end (a connection cut mid-write) is dropped.
func splitFrames(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= 4 {
		n := int(binary.LittleEndian.Uint32(b))
		if n > len(b)-4 {
			break
		}
		out = append(out, append([]byte(nil), b[4:4+n]...))
		b = b[4+n:]
	}
	return out
}

// recordingConn records both directions of a dialed connection.
type recordingConn struct {
	net.Conn
	mu   sync.Mutex
	w, r []byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.w = append(c.w, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.r = append(c.r, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *recordingConn) streams() (w, r []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.w...), append([]byte(nil), c.r...)
}
