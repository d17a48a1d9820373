package wire

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/latency"
	"sconrep/internal/metrics"
	"sconrep/internal/replica"
	"sconrep/internal/storage"
)

// TestCallDeadlineOnStalledPeer guards the deadline hardening: a peer
// that accepts the request but never responds must not hang the call
// forever. Before wire carried deadlines, this test deadlocked.
func TestCallDeadlineOnStalledPeer(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	drained := make(chan error, 1)
	go func() {
		// Drain the preamble, hello and first request, then go silent.
		br, release, err := acceptConn(server, certPreamble)
		if err != nil {
			drained <- err
			return
		}
		defer release()
		var h certHello
		var req certRequest
		if err := recvFrame(br, &h); err != nil {
			drained <- err
			return
		}
		drained <- recvFrame(br, &req)
		select {} // stall forever; Close from the deferred cleanup frees us
	}()
	dial := func(network, addr string) (net.Conn, error) { return client, nil }
	hello := func() outFrame { return &certHello{Kind: "req"} }
	p := newConnPool("stalled", certPreamble, hello, dial, Timeouts{Call: 100 * time.Millisecond})
	start := time.Now()
	var resp certResponse
	err := p.call(&certRequest{Op: "version"}, &resp)
	if err == nil {
		t.Fatal("call against a stalled peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %s to fire", elapsed)
	}
	if err := <-drained; err != nil {
		t.Fatalf("stalled peer could not read the request: %v", err)
	}
}

// TestCallDeadlineOnDeafPeer is the write-side variant: the peer never
// reads, so even the hello cannot flush. The write deadline must fail
// the call.
func TestCallDeadlineOnDeafPeer(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	dial := func(network, addr string) (net.Conn, error) { return client, nil }
	hello := func() outFrame { return &certHello{Kind: "req"} }
	p := newConnPool("deaf", certPreamble, hello, dial, Timeouts{Call: 100 * time.Millisecond})
	start := time.Now()
	var resp certResponse
	err := p.call(&certRequest{Op: "version"}, &resp)
	if err == nil {
		t.Fatal("call against a deaf peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("write deadline took %s to fire", elapsed)
	}
}

// TestSeqGuardDropsDuplicatedFrame: a duplicated request frame (the
// fault injector's DupProb, or any replaying middlebox) must kill the
// connection before the duplicate executes.
func TestSeqGuardDropsDuplicatedFrame(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	conn, err := net.Dial("tcp", d.repSrvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := appendFrame(nil, &replicaRequest{Seq: 1, Op: "status"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append([]byte(replicaPreamble), frame...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var resp replicaResponse
	if err := recvFrame(br, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.Crashed {
		t.Fatalf("status = %+v", resp)
	}
	// Replay the byte-identical frame: the server must drop the
	// connection without serving it.
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := recvFrame(br, &resp); err == nil {
		t.Fatal("duplicated frame was served instead of dropping the connection")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("duplicated frame left the connection open instead of dropping it")
	}
}

// TestGobClientFailsFast: a client from a build that still spoke gob
// must get an error at its first frame, not hang on a gateway that
// misreads its bytes as a frame length.
func TestGobClientFailsFast(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	conn, err := net.Dial("tcp", d.gateway.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	type legacyHello struct{ SessionID string }
	type legacyRequest struct {
		Seq uint64
		Op  string
	}
	if err := enc.Encode(legacyHello{SessionID: "gob"}); err != nil {
		t.Fatal(err)
	}
	// The gateway may already have closed the connection; the request
	// write can fail too. Either way the read must fail, and promptly.
	_ = enc.Encode(&legacyRequest{Seq: 1, Op: "begin"})
	var resp struct{ Seq uint64 }
	err = dec.Decode(&resp)
	if err == nil {
		t.Fatal("gob client got a response from the binary gateway")
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("gob client hung until its deadline instead of failing at its first frame")
	}
}

// TestWrongProtocolFailsFast: every protocol has its own preamble, so
// a refresh subscriber that reaches a gateway (a stale address, a port
// reused after a restart) errors at once. With one shared preamble the
// gateway would read the subscription hello as a client hello and both
// ends would wait on each other.
func TestWrongProtocolFailsFast(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	conn, br := rawSubscribe(t, d.gateway.Addr(), certHello{Kind: "sub", ReplicaID: 1})
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var batch refreshBatch
	err := recvFrame(br, &batch)
	if err == nil {
		t.Fatal("a gateway served a refresh stream")
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("subscriber hung on a gateway instead of failing at its first frame")
	}
}

// TestBinaryClientFailsFastOnGobServer is the other direction: a
// current client reaching a server that still speaks gob errors out at
// its first request (the preamble's first byte is one gob rejects)
// instead of hanging.
func TestBinaryClientFailsFastOnGobServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var hello struct{ SessionID string }
		_ = gob.NewDecoder(c).Decode(&hello) // fails on the preamble
	}()
	c, err := Dial(ln.Addr().String(), "s", WithTimeouts(Timeouts{Call: 5 * time.Second}))
	if err != nil {
		return // refused at the hello: also a clean failure
	}
	defer c.Close()
	// Begin sends nothing; the first statement carries it, and is the
	// first request frame the server sees.
	if err := c.Begin(""); err != nil {
		t.Fatal(err)
	}
	_, err = c.Exec(`SELECT v FROM kv WHERE k = ?`, int64(1))
	if err == nil {
		t.Fatal("the first statement against a gob server succeeded")
	}
	if !c.Broken() {
		t.Fatalf("exec against a gob server failed without breaking the session: %v", err)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("client hung until its deadline instead of failing fast")
	}
}

// TestCertClientResubscribeAfterServerRestart is the reconnect
// regression: kill the certifier server mid-stream, advance the
// certifier while the replica is partitioned, restart the server on
// the same port, and require the replica to catch up without missing a
// refresh.
func TestCertClientResubscribeAfterServerRestart(t *testing.T) {
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0",
		WithTimeouts(Timeouts{Call: 2 * time.Second, LongPoll: 2 * time.Second, Idle: 200 * time.Millisecond}),
		WithBackoff(Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// Replica 0 attaches over the wire.
	eng := storage.NewEngine()
	loadKV(t, eng)
	cc := DialCertifier(addr, 0, eng.Version(),
		WithTimeouts(Timeouts{Call: 2 * time.Second, LongPoll: 2 * time.Second, Idle: 200 * time.Millisecond}),
		WithBackoff(Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond}),
		WithVLocal(eng.Version))
	defer cc.Close()
	rep := replica.New(replica.Config{ID: 0, EarlyCert: true}, eng, cc)
	defer rep.Crash()

	// The client's hello carries VLocal for start-version adoption and
	// lands asynchronously; wait for it before committing anything.
	adopt := time.Now().Add(5 * time.Second)
	for cert.Version() != eng.Version() {
		if time.Now().After(adopt) {
			t.Fatalf("certifier never adopted start version %d", eng.Version())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Replica 1 attaches in process, so it can keep committing while
	// the wire server is down.
	eng2 := storage.NewEngine()
	loadKV(t, eng2)
	rep2 := replica.New(replica.Config{ID: 1, EarlyCert: true}, eng2, replica.Local(cert))
	defer rep2.Crash()

	commit := func(r *replica.Replica, stmt string) uint64 {
		t.Helper()
		tx, err := r.Begin(0, metrics.NewTxnTimer())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.ExecSQL(stmt); err != nil {
			t.Fatal(err)
		}
		res, err := tx.Commit(false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Version
	}
	waitVersion := func(r *replica.Replica, v uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for r.Version() < v {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d stuck at version %d, want %d", r.ID(), r.Version(), v)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	v1 := commit(rep2, `UPDATE kv SET v = 'one' WHERE k = 1`)
	waitVersion(rep, v1) // stream works before the restart

	// Kill the server mid-stream. The client's queue must survive.
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for cc.StreamLive(0) {
		if time.Now().After(deadline) {
			t.Fatal("stream still reported live after server close")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The world moves on while replica 0 is partitioned.
	v2 := commit(rep2, `UPDATE kv SET v = 'two' WHERE k = 2`)
	v3 := commit(rep2, `UPDATE kv SET v = 'three' WHERE k = 3`)
	if rep.Version() >= v2 {
		t.Fatalf("partitioned replica saw version %d", rep.Version())
	}

	// Restart on the same port; the client must resubscribe from its
	// Vlocal and backfill v2 and v3 with no gap.
	srv2, err := ServeCertifier(cert, addr,
		WithTimeouts(Timeouts{Call: 2 * time.Second, LongPoll: 2 * time.Second, Idle: 200 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitVersion(rep, v3)

	got := snapshotKV(t, eng)
	if got[2] != "two" || got[3] != "three" {
		t.Fatalf("recovered state = %v", got)
	}
	if !cc.Ready(0) {
		t.Fatal("client not Ready after catch-up")
	}
	_ = v2
}

// TestLossyCertifierRestartAdoptsLiveVersion: a certifier restarted
// WITHOUT its decision log adopts its start version from the first
// hello. That hello must carry the replica's LIVE Vlocal — adopting
// the dial-time snapshot would re-assign already-used commit versions
// and crash every replica past the stale point.
func TestLossyCertifierRestartAdoptsLiveVersion(t *testing.T) {
	to := Timeouts{Call: 2 * time.Second, LongPoll: 2 * time.Second, Idle: 200 * time.Millisecond}
	bo := Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0", WithTimeouts(to), WithBackoff(bo))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	eng := storage.NewEngine()
	loadKV(t, eng)
	boot := eng.Version()
	cc := DialCertifier(addr, 0, boot, WithTimeouts(to), WithBackoff(bo), WithVLocal(eng.Version))
	defer cc.Close()
	rep := replica.New(replica.Config{ID: 0, EarlyCert: true}, eng, cc)
	defer rep.Crash()

	commit := func(stmt string) uint64 {
		t.Helper()
		tx, err := rep.Begin(0, metrics.NewTxnTimer())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.ExecSQL(stmt); err != nil {
			t.Fatal(err)
		}
		res, err := tx.Commit(false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Version
	}
	wait := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wait(func() bool { return cert.Version() == boot }, "bootstrap adoption")

	// Move the replica well past its bootstrap version.
	var v uint64
	for i := 1; i <= 3; i++ {
		v = commit(fmt.Sprintf(`UPDATE kv SET v = 'x%d' WHERE k = %d`, i, i))
	}
	wait(func() bool { return eng.Version() == v }, "commits applied")

	// Lossy restart: a FRESH certifier on the same port, no WAL replay.
	srv.Close()
	fresh := certifier.New()
	srv2, err := ServeCertifier(fresh, addr, WithTimeouts(to), WithBackoff(bo))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// Adoption must land on the live version v, not the bootstrap one.
	wait(func() bool { return fresh.Version() == v }, "live-version adoption")
	wait(func() bool { return cc.Ready(0) }, "client ready after restart")

	// The next commit gets a never-used version and applies cleanly.
	if got := commit(`UPDATE kv SET v = 'after' WHERE k = 1`); got != v+1 {
		t.Fatalf("post-restart commit got version %d, want %d", got, v+1)
	}
	if kv := snapshotKV(t, eng); kv[1] != "after" {
		t.Fatalf("post-restart state = %v", kv)
	}
}

// TestAbortWaitsForInFlightExec: the gateway's abort for a transaction
// can arrive on one pooled connection while an exec of the same
// transaction still runs on another (the client's connection died
// mid-statement). The replica server must serialize the two, so the
// abort lands after the statement, instead of running replica.Txn's
// Abort concurrently with its Exec.
func TestAbortWaitsForInFlightExec(t *testing.T) {
	eng := storage.NewEngine()
	loadKV(t, eng)
	const stmt = 300 * time.Millisecond
	rep := replica.New(replica.Config{ID: 0, EarlyCert: true,
		Latency: latency.NewSource(latency.Model{StatementCPU: stmt}, 1)}, eng, replica.Local(certifier.New()))
	defer rep.Crash()
	srv, err := ServeReplica(rep, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// ErrTxnDone crosses the wire as its message.
	txnDone := func(err error) bool { return err != nil && err.Error() == replica.ErrTxnDone.Error() }
	o := buildOptions(nil)
	execLink, abortLink := newRemoteReplica(0, srv.Addr(), &o), newRemoteReplica(0, srv.Addr(), &o)
	defer execLink.pool.close()
	defer abortLink.pool.close()

	var resp replicaResponse
	r, err := execLink.call(&replicaRequest{Op: "exec", Begin: true, SQL: `SELECT v FROM kv WHERE k = 1`}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	id := r.TxnID
	const update = `UPDATE kv SET v = 'x' WHERE k = 1`
	execErr := make(chan error, 1)
	sent := time.Now()
	go func() {
		var resp replicaResponse
		_, err := execLink.call(&replicaRequest{Op: "exec", TxnID: id, SQL: update}, &resp)
		execErr <- err
	}()
	// Wait until the exec runs: its statement enters the server's cache
	// right before the statement's stmt-long execution starts.
	running := func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		_, ok := srv.stmts[update]
		return ok
	}
	for deadline := time.Now().Add(5 * time.Second); !running(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the exec never reached the replica server")
		}
	}
	if _, err := abortLink.call(&replicaRequest{Op: "abort", TxnID: id}, &resp); err != nil {
		t.Fatal(err)
	}
	aborted := time.Since(sent)
	switch err := <-execErr; {
	case txnDone(err):
		// The abort reached the transaction first; the statement found
		// it gone instead of running on an aborted transaction.
	case err != nil:
		t.Fatal(err)
	case aborted < stmt:
		// The statement ran, taking at least stmt from its send, so an
		// abort serialized behind it cannot have answered sooner.
		t.Fatalf("abort answered %s after the exec was sent, while its %s statement was still running", aborted, stmt)
	}
	if n := rep.Active(); n != 0 {
		t.Fatalf("%d transactions still active after the abort", n)
	}
	if _, err := execLink.call(&replicaRequest{Op: "commit", TxnID: id}, &resp); !txnDone(err) {
		t.Fatalf("commit after abort: %v, want ErrTxnDone", err)
	}
	r, err = execLink.call(&replicaRequest{Op: "commit", Begin: true}, &resp)
	if err != nil || r.Commit.Version != eng.Version() || r.Commit.Version != r.Snapshot {
		t.Fatalf("aborted update reached the engine: commit %+v at engine version %d, err %v", r, eng.Version(), err)
	}
}
