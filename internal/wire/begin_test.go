package wire

import (
	"errors"
	"testing"
	"time"

	"sconrep/internal/core"
)

// requestCounts returns how many request frames the recorded links
// have carried so far: those the client wrote (its hello included)
// and those the gateway wrote to replicas, leaving out its periodic
// status probes.
func requestCounts(t *testing.T, rec *linkRecorder) (client, replica int) {
	t.Helper()
	w, _ := rec.streams(clientPreamble)
	client = len(w)
	w, _ = rec.streams(replicaPreamble)
	for _, p := range w {
		var req replicaRequest
		if err := req.parsePayload(p); err != nil {
			t.Fatal(err)
		}
		if req.Op != "status" {
			replica++
		}
	}
	return client, replica
}

// recordedSession starts a deployment and a client whose links are
// all recorded.
func recordedSession(t *testing.T, mode core.Mode) (*deployment, *Client, *linkRecorder) {
	t.Helper()
	rec := &linkRecorder{}
	d := newDeployment(t, 1, mode, WithDialer(rec.dial))
	c, err := Dial(d.gateway.Addr(), "rt", WithDialer(rec.dial))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return d, c, rec
}

// expectRequests runs txn and requires it to put exactly client
// requests on the client link and replica requests on the replica
// link.
func expectRequests(t *testing.T, rec *linkRecorder, client, replica int, txn func()) {
	t.Helper()
	c0, r0 := requestCounts(t, rec)
	txn()
	c1, r1 := requestCounts(t, rec)
	if c1-c0 != client || r1-r0 != replica {
		t.Fatalf("requests: client %d, replica %d; want %d and %d", c1-c0, r1-r0, client, replica)
	}
}

// TestOneStatementTxnTwoExchanges pins the round trips of the common
// case: the begin rides the statement, so a one-statement transaction
// is two exchanges on each link, and the first of each carries the
// begin.
func TestOneStatementTxnTwoExchanges(t *testing.T) {
	_, c, rec := recordedSession(t, core.Coarse)
	expectRequests(t, rec, 2, 2, func() {
		if err := c.Begin(""); err != nil {
			t.Fatal(err)
		}
		res, err := c.Exec(`SELECT v FROM kv WHERE k = ?`, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("read %d rows", len(res.Rows))
		}
		if _, _, err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	w, _ := rec.streams(clientPreamble)
	var first clientRequest
	if err := first.parsePayload(w[len(w)-2]); err != nil {
		t.Fatal(err)
	}
	if first.Op != "exec" || !first.Begin {
		t.Fatalf("first client request = %+v, want an exec carrying the begin", first)
	}
	var ops []string
	w, _ = rec.streams(replicaPreamble)
	for _, p := range w {
		var req replicaRequest
		if err := req.parsePayload(p); err != nil {
			t.Fatal(err)
		}
		if req.Op != "status" {
			ops = append(ops, req.Op)
			if req.Begin != (len(ops) == 1) {
				t.Fatalf("replica request %d (%s): Begin = %v", len(ops), req.Op, req.Begin)
			}
		}
	}
}

// TestEmptyTxnOneExchange: a transaction that runs no statement begins
// and commits in one exchange per link, as a read-only commit at its
// snapshot.
func TestEmptyTxnOneExchange(t *testing.T) {
	_, c, rec := recordedSession(t, core.Coarse)
	expectRequests(t, rec, 1, 1, func() {
		if err := c.Begin(""); err != nil {
			t.Fatal(err)
		}
		info, err := c.CommitEx()
		if err != nil {
			t.Fatal(err)
		}
		if !info.ReadOnly || info.Version != info.Snapshot || info.Snapshot != c.Snapshot() {
			t.Fatalf("commit = %+v (client snapshot %d), want read-only at its snapshot", info, c.Snapshot())
		}
	})
}

// TestAbortBeforeStatementSendsNothing: a transaction aborted before its
// first request never reached the gateway, so aborting it is free, and
// the session can begin again.
func TestAbortBeforeStatementSendsNothing(t *testing.T) {
	_, c, rec := recordedSession(t, core.Coarse)
	expectRequests(t, rec, 0, 0, func() {
		if err := c.Begin(""); err != nil {
			t.Fatal(err)
		}
		if err := c.Abort(); err != nil {
			t.Fatal(err)
		}
	})
	expectRequests(t, rec, 2, 2, func() {
		if err := c.Begin(""); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(`SELECT v FROM kv WHERE k = ?`, int64(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFailedBeginLeavesSessionUsable: a begin that fails where the
// first request carries it (a replica that refuses it at its serve
// gate, or no healthy replica to route to) leaves the session idle, so
// the client begins again; an unknown fine-grained name is not a
// failure at all but routes as coarse. A statement that fails after
// its begin succeeded leaves the transaction open, as it always did.
func TestFailedBeginLeavesSessionUsable(t *testing.T) {
	d, c, _ := recordedSession(t, core.Fine)
	read := func() error {
		_, err := c.Exec(`SELECT v FROM kv WHERE k = ?`, int64(1))
		return err
	}
	roundTrip := func(name string) {
		t.Helper()
		if err := c.Begin(name); err != nil {
			t.Fatal(err)
		}
		if err := read(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip("never-registered")

	// The replica refuses the begin at its serve gate, and the gateway
	// marks it unhealthy; with no healthy replica left, the next begin
	// fails at routing. Both leave the session idle.
	rr := d.gateway.replicas[0]
	d.refuse.Store(true)
	if err := c.Begin(""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Commit(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("commit through a refusing replica: %v, want ErrUnavailable", err)
	}
	if !rr.Crashed() {
		t.Fatal("the gateway still routes to the replica that refused")
	}
	if err := c.Begin(""); err != nil {
		t.Fatal(err)
	}
	if err := read(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("exec with no healthy replica: %v, want ErrUnavailable", err)
	}
	if got := rr.Active(); got != 0 {
		t.Fatalf("failed begins left the replica's active count at %d", got)
	}
	// The gateway's status probes bring the replica back once it serves
	// again; only a probe made after the gate reopened reports it ready.
	d.refuse.Store(false)
	for deadline := time.Now().Add(5 * time.Second); rr.Crashed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the gateway never routed to the replica again")
		}
	}
	roundTrip("")

	// A statement error after a successful begin keeps the transaction.
	if err := c.Begin(""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT nope FROM kv`); err == nil {
		t.Fatal("bad statement succeeded")
	}
	if c.Snapshot() == 0 {
		t.Fatal("the begin succeeded but reported no snapshot")
	}
	if err := c.Begin(""); !errors.Is(err, errTxnOpen) {
		t.Fatalf("begin over the open transaction: %v, want errTxnOpen", err)
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	roundTrip("")
}
