package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/lb"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
)

// Client-link protocol (application ⇄ gateway). The client opens the
// connection with the preamble and a clientHello, then sends one
// clientRequest per clientResponse.

type clientHello struct {
	SessionID string
}

var clientHelloTable = frameTable{name: "clientHello", fields: []fieldSpec{
	{1, "SessionID", kindString},
}}

type clientRequest struct {
	// Seq numbers requests per connection; see seqGuard.
	Seq uint64
	Op  string // "register", "exec", "commit", "abort"

	// register; for a begin, an explicit table-set (DispatchTables)
	Name   string
	Tables []string

	// Begin marks a transaction's first exec or commit, which also
	// begins it: the gateway routes it by TxnName (or Tables) and the
	// replica begins the transaction before running the request.
	Begin   bool
	TxnName string
	// Trace is the client-side root span's context, propagated through
	// the lb route and the replica begin. Optional: untraced clients
	// leave it zero, which the gateway reads as "no parent".
	Trace dtrace.SpanContext

	// exec
	SQL    string
	Params []any
}

var clientRequestTable = frameTable{name: "clientRequest", fields: []fieldSpec{
	{1, "Seq", kindUint},
	{2, "Op", kindString},
	{3, "Name", kindString},
	{4, "Tables", kindStrings},
	{5, "TxnName", kindString},
	{6, "Trace", kindSpan},
	{7, "SQL", kindString},
	{8, "Params", kindValues},
	{9, "Begin", kindBool},
}}

type clientResponse struct {
	Seq     uint64
	Err     string
	ErrCode string
	Result  *sql.Result
	// Snapshot is the transaction's snapshot, on the response to the
	// request that carried its begin and on a commit's.
	Snapshot uint64
	// commit
	Version     uint64
	ReadOnly    bool
	WriteTables []string
	ReadTables  []string
	// Open reports whether the session has a transaction open after
	// this request, so the client never has to guess whether a failed
	// request began or ended one.
	Open bool
}

var clientResponseTable = frameTable{name: "clientResponse", fields: []fieldSpec{
	{1, "Seq", kindUint},
	{2, "Err", kindString},
	{3, "ErrCode", kindString},
	{4, "Result", kindResult},
	{5, "Snapshot", kindUint},
	{6, "Version", kindUint},
	{7, "ReadOnly", kindBool},
	{8, "WriteTables", kindStrings},
	{9, "ReadTables", kindStrings},
	{10, "Open", kindBool},
}}

func (m *clientHello) appendPayload(b []byte) ([]byte, error) {
	return appendStringField(b, 1, m.SessionID), nil
}

func (m *clientHello) parsePayload(p []byte) error {
	d := payloadReader{p: p}
	for d.more() {
		num, wt, err := d.tag()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			m.SessionID, err = d.stringField(wt)
		default:
			err = d.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *clientRequest) appendPayload(b []byte) ([]byte, error) {
	b = appendUintField(b, 1, m.Seq)
	b = appendStringField(b, 2, m.Op)
	b = appendStringField(b, 3, m.Name)
	b = appendStringsField(b, 4, m.Tables)
	b = appendStringField(b, 5, m.TxnName)
	b = appendSpanField(b, 6, m.Trace)
	b = appendStringField(b, 7, m.SQL)
	b, err := appendValuesField(b, 8, m.Params)
	if err != nil {
		return nil, err
	}
	return appendBoolField(b, 9, m.Begin), nil
}

func (m *clientRequest) parsePayload(p []byte) error {
	d := payloadReader{p: p}
	for d.more() {
		num, wt, err := d.tag()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			m.Seq, err = d.uintField(wt)
		case 2:
			m.Op, err = d.stringField(wt)
		case 3:
			m.Name, err = d.stringField(wt)
		case 4:
			m.Tables, err = d.stringsField(wt)
		case 5:
			m.TxnName, err = d.stringField(wt)
		case 6:
			m.Trace, err = d.spanField(wt)
		case 7:
			m.SQL, err = d.stringField(wt)
		case 8:
			m.Params, err = d.valuesField(wt)
		case 9:
			m.Begin, err = d.boolField(wt)
		default:
			err = d.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *clientResponse) appendPayload(b []byte) ([]byte, error) {
	b = appendUintField(b, 1, m.Seq)
	b = appendStringField(b, 2, m.Err)
	b = appendStringField(b, 3, m.ErrCode)
	b, err := appendResultField(b, 4, m.Result)
	if err != nil {
		return nil, err
	}
	b = appendUintField(b, 5, m.Snapshot)
	b = appendUintField(b, 6, m.Version)
	b = appendBoolField(b, 7, m.ReadOnly)
	b = appendStringsField(b, 8, m.WriteTables)
	b = appendStringsField(b, 9, m.ReadTables)
	return appendBoolField(b, 10, m.Open), nil
}

func (m *clientResponse) parsePayload(p []byte) error {
	d := payloadReader{p: p}
	for d.more() {
		num, wt, err := d.tag()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			m.Seq, err = d.uintField(wt)
		case 2:
			m.Err, err = d.stringField(wt)
		case 3:
			m.ErrCode, err = d.stringField(wt)
		case 4:
			m.Result, err = d.resultField(wt)
		case 5:
			m.Snapshot, err = d.uintField(wt)
		case 6:
			m.Version, err = d.uintField(wt)
		case 7:
			m.ReadOnly, err = d.boolField(wt)
		case 8:
			m.WriteTables, err = d.stringsField(wt)
		case 9:
			m.ReadTables, err = d.stringsField(wt)
		case 10:
			m.Open, err = d.boolField(wt)
		default:
			err = d.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fail records err as the response's error.
func (m *clientResponse) fail(err error) *clientResponse {
	m.Err = err.Error()
	m.ErrCode = errCode(err)
	return m
}

// Gateway is the networked load balancer: it accepts client sessions,
// routes transactions to replica processes per the consistency mode,
// and maintains the version tracker from commit acknowledgments.
type Gateway struct {
	balancer *lb.LoadBalancer
	replicas []*remoteReplica
	ln       net.Listener
	stop     chan struct{}
	opts     options

	mu sync.Mutex
	// closed refuses new connections.
	// guarded by mu
	closed bool
	// conns is the set of live client connections.
	// guarded by mu
	conns map[net.Conn]struct{}
	// obsReqs is nil-safe until EnableObs.
	// guarded by mu
	obsReqs  *obs.CounterVec
	sessions atomic.Int64
}

// EnableObs registers the gateway's live metrics with reg: client
// request counts per operation, open session count, and the embedded
// load balancer's routing/version instruments. Call before traffic.
func (g *Gateway) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	g.mu.Lock()
	g.obsReqs = reg.CounterVec("sconrep_wire_requests_total",
		"Wire requests served, by link and operation.", "op", "link", "gateway")
	g.mu.Unlock()
	reg.GaugeFunc("sconrep_gateway_sessions",
		"Client sessions currently connected to the gateway.",
		func() float64 { return float64(g.sessions.Load()) })
	g.balancer.EnableObs(reg)
}

// ServeGateway starts a gateway on addr routing to the given replica
// addresses under the given consistency mode.
func ServeGateway(addr string, mode core.Mode, replicaAddrs []string, opts ...Option) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	g := &Gateway{ln: ln, stop: make(chan struct{}), opts: buildOptions(opts), conns: make(map[net.Conn]struct{})}
	nodes := make([]lb.Node, 0, len(replicaAddrs))
	for i, a := range replicaAddrs {
		rr := newRemoteReplica(i, a, &g.opts)
		g.replicas = append(g.replicas, rr)
		nodes = append(nodes, rr)
	}
	g.balancer = lb.New(mode, nodes)
	go g.acceptLoop()
	go g.probeLoop()
	return g, nil
}

// Addr returns the bound address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Close stops the gateway: listener, live client sessions, and the
// replica connection pools.
func (g *Gateway) Close() error {
	close(g.stop)
	g.mu.Lock()
	g.closed = true
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	err := g.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, r := range g.replicas {
		r.pool.close()
	}
	return err
}

// Balancer exposes the LB (tests).
func (g *Gateway) Balancer() *lb.LoadBalancer { return g.balancer }

func (g *Gateway) acceptLoop() {
	for {
		c, err := g.ln.Accept()
		if err != nil {
			return
		}
		go g.handle(c)
	}
}

// probeLoop keeps replica health fresh so recovered replicas rejoin.
func (g *Gateway) probeLoop() {
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			for _, r := range g.replicas {
				r.probe()
			}
		}
	}
}

// gatewaySession is the per-connection session state: sessions are
// serial, so at most one transaction is open per connection.
type gatewaySession struct {
	id      string
	replica *remoteReplica
	txnID   uint64
	open    bool
	// rreq / rresp are the session's replica exchange, reused across
	// its serial calls.
	rreq  replicaRequest
	rresp replicaResponse
}

// call sends req to rr through the session's reusable exchange; the
// response is valid until the session's next call.
func (s *gatewaySession) call(rr *remoteReplica, req replicaRequest) (*replicaResponse, error) {
	s.rreq = req
	return rr.call(&s.rreq, &s.rresp)
}

func (g *Gateway) handle(c net.Conn) {
	defer c.Close()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.conns[c] = struct{}{}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.conns, c)
		g.mu.Unlock()
	}()
	br, release, err := acceptConn(c, clientPreamble)
	if err != nil {
		return
	}
	defer release()
	var hello clientHello
	if err := recvFrame(br, &hello); err != nil {
		return
	}
	// The session ID keys the balancer's session state for the whole
	// session; copy it out of the hello frame.
	sess := &gatewaySession{id: strings.Clone(hello.SessionID)}
	g.sessions.Add(1)
	defer g.sessions.Add(-1)
	defer func() {
		if sess.open {
			_, _ = sess.call(sess.replica, replicaRequest{Op: "abort", TxnID: sess.txnID})
			sess.replica.active.Add(-1)
		}
		g.balancer.EndSession(sess.id)
	}()
	var guard seqGuard
	// One request and one response per session, reused: the session is
	// serial, and nothing keeps either past its exchange.
	var req clientRequest
	var resp clientResponse
	for {
		req = clientRequest{}
		if err := recvFrame(br, &req); err != nil {
			return
		}
		if !guard.ok(req.Seq) {
			return
		}
		g.dispatch(sess, &req, &resp)
		resp.Seq = req.Seq
		resp.Open = sess.open
		if err := writeFrame(c, nil, &resp); err != nil {
			return
		}
	}
}

// dispatch serves one request, filling resp.
func (g *Gateway) dispatch(sess *gatewaySession, req *clientRequest, resp *clientResponse) *clientResponse {
	g.mu.Lock()
	reqs := g.obsReqs
	g.mu.Unlock()
	reqs.With(req.Op).Inc()
	*resp = clientResponse{}
	switch req.Op {
	case "register":
		// The registry keeps the name and table-set for good; copy them
		// out of the request frame.
		g.balancer.RegisterTxn(strings.Clone(req.Name), cloneStrings(req.Tables))
	case "exec", "commit":
		return g.txnRequest(sess, req, resp)
	case "abort":
		if sess.open {
			sess.open = false
			sess.replica.active.Add(-1)
			_, _ = sess.call(sess.replica, replicaRequest{Op: "abort", TxnID: sess.txnID})
		}
	default:
		return resp.fail(fmt.Errorf("wire: unknown client op %q", req.Op))
	}
	return resp
}

// txnRequest serves an exec or commit. One that carries the begin is
// routed first and begins the transaction at the replica in the same
// exchange; the session opens only if the replica reports the
// transaction it began, so a failed begin leaves the session idle.
func (g *Gateway) txnRequest(sess *gatewaySession, req *clientRequest, resp *clientResponse) *clientResponse {
	commit := req.Op == "commit"
	rreq := replicaRequest{Op: req.Op, SQL: req.SQL, Params: req.Params, Eager: commit && g.balancer.Mode() == core.Eager}
	rr := sess.replica
	if req.Begin {
		if sess.open {
			return resp.fail(errTxnOpen)
		}
		var route lb.Route
		var err error
		if len(req.Tables) > 0 {
			route, err = g.balancer.DispatchTables(sess.id, req.Tables)
		} else {
			route, err = g.balancer.DispatchCtx(sess.id, req.TxnName, req.Trace)
		}
		if err != nil {
			return resp.fail(err)
		}
		rr = route.Node.(*remoteReplica)
		rr.active.Add(1)
		// An untraced (or pre-tracing) client supplies no span context;
		// fall back to the route span so the replica's work still joins
		// a gateway-rooted trace instead of fragmenting.
		rreq.Begin, rreq.MinVersion, rreq.Trace = true, route.MinVersion, req.Trace
		if !rreq.Trace.Valid() {
			rreq.Trace = route.Trace
		}
	} else {
		if !sess.open {
			return resp.fail(errNoTxn)
		}
		rreq.TxnID = sess.txnID
	}
	r, err := sess.call(rr, rreq)
	if req.Begin {
		if r == nil || r.TxnID == 0 {
			rr.active.Add(-1)
			if err == nil {
				err = errors.New("wire: replica began no transaction")
			}
			return resp.fail(err)
		}
		sess.replica, sess.txnID, sess.open = rr, r.TxnID, true
		resp.Snapshot = r.Snapshot
	}
	if commit {
		sess.open = false
		rr.active.Add(-1)
		if err != nil {
			return resp.fail(err)
		}
		// The tracker may keep written table names as map keys.
		r.Commit.WrittenTables = cloneStrings(r.Commit.WrittenTables)
		g.balancer.ObserveCommit(sess.id, r.Commit)
		resp.Version = r.Commit.Version
		resp.ReadOnly = r.Commit.ReadOnly
		resp.Snapshot = r.Snapshot
		resp.WriteTables = r.Commit.WrittenTables
		resp.ReadTables = r.Touched
		return resp
	}
	if err != nil {
		if errors.Is(err, replica.ErrEarlyAbort) || errors.Is(err, replica.ErrCertifyConflict) || errors.Is(err, replica.ErrCrashed) {
			sess.open = false
			rr.active.Add(-1)
		}
		return resp.fail(err)
	}
	resp.Result = r.Result
	return resp
}
