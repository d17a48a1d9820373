// Wire-level interop for sharded certification and partial refresh
// subscriptions: a pre-sharding peer speaks hellos and requests without
// the Shards fields (zero values are never encoded, so its frames are
// exactly ours with Shards empty) — legacy peers must keep getting the
// full stream, and partial subscribers must get skip markers (nil WS)
// for foreign-shard versions so the version order stays contiguous.
package wire

import (
	"bufio"
	"net"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/shard"
	"sconrep/internal/writeset"
)

// newShardedCert builds a 4-shard certifier with tables t0..t3 pinned
// to shards 0..3.
func newShardedCert(t *testing.T) *certifier.Certifier {
	t.Helper()
	smap, err := shard.New(4, map[string]int{"t0": 0, "t1": 1, "t2": 2, "t3": 3})
	if err != nil {
		t.Fatal(err)
	}
	return certifier.New(certifier.WithShards(smap))
}

// certifyOn commits one single-row writeset on the given table.
func certifyOn(t *testing.T, cert *certifier.Certifier, table string, txnID uint64) {
	t.Helper()
	ws := &writeset.WriteSet{Items: []writeset.Item{
		{Table: table, Key: "k", Op: writeset.OpUpdate, Row: []any{"x"}},
	}}
	d, err := cert.Certify(0, txnID, cert.Version(), ws)
	if err != nil || !d.Commit {
		t.Fatalf("certify %s: commit=%v err=%v", table, d.Commit, err)
	}
}

// rawSubscribe opens a hand-rolled subscription stream: the preamble
// and a "sub" hello, then the reader the refresh frames arrive on.
func rawSubscribe(tb testing.TB, addr string, hello certHello) (net.Conn, *bufio.Reader) {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	pre, err := preamble(certPreamble, &hello)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := conn.Write(pre); err != nil {
		tb.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// TestRefreshStreamAttachFrame pins the stream's first frame: an empty
// batch sent only once the subscription is attached. A subscriber that
// learns its serve floor after this frame cannot miss a version: later
// ones reach the stream, earlier ones are at or below the floor.
func TestRefreshStreamAttachFrame(t *testing.T) {
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, br := rawSubscribe(t, srv.Addr(), certHello{Kind: "sub", ReplicaID: 4})
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var first refreshBatch
	if err := recvFrame(br, &first); err != nil {
		t.Fatalf("no attach frame: %v", err)
	}
	if len(first.Refreshes) != 0 {
		t.Fatalf("attach frame carried %d refreshes", len(first.Refreshes))
	}
	if got := cert.Replicas(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("attach frame arrived before the subscription attached (subscribers %v)", got)
	}
	certifyN(t, cert, 1)
	var next refreshBatch
	if err := recvFrame(br, &next); err != nil {
		t.Fatal(err)
	}
	if len(next.Refreshes) != 1 || next.Refreshes[0].Version != 1 {
		t.Fatalf("first refresh = %+v", next.Refreshes)
	}
}

// TestShardedStreamLegacySubscriber proves a pre-sharding subscriber —
// whose hello has no Shards field — gets the full refresh stream from
// a sharded certifier: every version, every writeset, no skip markers.
func TestShardedStreamLegacySubscriber(t *testing.T) {
	cert := newShardedCert(t)
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, br := rawSubscribe(t, srv.Addr(), certHello{Kind: "sub", ReplicaID: 3})
	defer conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(cert.Replicas()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never subscribed the legacy client")
		}
		time.Sleep(time.Millisecond)
	}
	for i, table := range []string{"t0", "t1", "t2", "t3"} {
		certifyOn(t, cert, table, uint64(i+1))
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var seen uint64
	for seen < 4 {
		var batch refreshBatch
		if err := recvFrame(br, &batch); err != nil {
			t.Fatalf("frame after %d refreshes: %v", seen, err)
		}
		for i := range batch.Refreshes {
			r := batch.Refreshes[i]
			if r.Version != seen+1 {
				t.Fatalf("version %d out of order (want %d)", r.Version, seen+1)
			}
			seen = r.Version
			if r.WS == nil || len(r.WS.Items) != 1 {
				t.Fatalf("version %d: legacy subscriber got a skip marker (WS=%v), want the full writeset", r.Version, r.WS)
			}
		}
	}
}

// TestShardedStreamPartialSubscriber proves the partial-subscription
// contract: a subscriber declaring Shards gets full writesets for its
// shards and nil-WS skip markers — version order still contiguous —
// for everything else.
func TestShardedStreamPartialSubscriber(t *testing.T) {
	cert := newShardedCert(t)
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, br := rawSubscribe(t, srv.Addr(), certHello{Kind: "sub", ReplicaID: 5, Shards: []int{0, 2}})
	defer conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(cert.Replicas()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never subscribed the client")
		}
		time.Sleep(time.Millisecond)
	}
	for i, table := range []string{"t0", "t1", "t2", "t3"} {
		certifyOn(t, cert, table, uint64(i+1))
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	served := map[uint64]bool{1: true, 3: true} // t0 → v1, t2 → v3
	var seen uint64
	for seen < 4 {
		var batch refreshBatch
		if err := recvFrame(br, &batch); err != nil {
			t.Fatalf("frame after %d refreshes: %v", seen, err)
		}
		for i := range batch.Refreshes {
			r := batch.Refreshes[i]
			if r.Version != seen+1 {
				t.Fatalf("version %d out of order (want %d): skip markers must keep the order contiguous", r.Version, seen+1)
			}
			seen = r.Version
			if served[r.Version] && (r.WS == nil || len(r.WS.Items) != 1) {
				t.Fatalf("version %d is on a subscribed shard but arrived as a skip marker", r.Version)
			}
			if !served[r.Version] && r.WS != nil {
				t.Fatalf("version %d is on an unsubscribed shard but carried writeset %+v", r.Version, r.WS)
			}
		}
	}
}

// TestShardedHistoryPartialRequest proves the backfill side of partial
// subscriptions: a history request declaring Shards gets the same
// filtering as the live stream, while a legacy request (no Shards
// field) gets every writeset.
func TestShardedHistoryPartialRequest(t *testing.T) {
	cert := newShardedCert(t)
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, table := range []string{"t0", "t1", "t2", "t3"} {
		certifyOn(t, cert, table, uint64(i+1))
	}

	call := func(t *testing.T, req certRequest) []certifier.Refresh {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		pre, err := preamble(certPreamble, &certHello{Kind: "req", ReplicaID: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, pre, &req); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var resp certResponse
		if err := recvFrame(bufio.NewReader(conn), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.History
	}

	full := call(t, certRequest{Seq: 1, Op: "history", After: 0})
	if len(full) != 4 {
		t.Fatalf("legacy history returned %d refreshes, want 4", len(full))
	}
	for _, r := range full {
		if r.WS == nil {
			t.Fatalf("legacy history: version %d is a skip marker", r.Version)
		}
	}

	part := call(t, certRequest{Seq: 1, Op: "history", After: 0, Shards: []int{1}})
	if len(part) != 4 {
		t.Fatalf("partial history returned %d refreshes, want 4 (markers keep the order contiguous)", len(part))
	}
	for _, r := range part {
		if r.Version == 2 && r.WS == nil {
			t.Fatalf("partial history: version 2 is on the requested shard but arrived as a skip marker")
		}
		if r.Version != 2 && r.WS != nil {
			t.Fatalf("partial history: version %d is off-shard but carried a writeset", r.Version)
		}
	}
}
