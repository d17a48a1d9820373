package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sconrep/internal/lb"
	"sconrep/internal/metrics"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
)

// Replica-link protocol (gateway ⇄ replica). The gateway opens each
// pooled connection with the preamble (no hello) and sends one
// replicaRequest per replicaResponse.

type replicaRequest struct {
	// Seq numbers requests per connection; see seqGuard.
	Seq uint64
	Op  string // "exec", "commit", "abort", "status"

	// Begin marks an exec or commit that first begins its transaction
	// at MinVersion; the response reports the new TxnID.
	Begin      bool
	MinVersion uint64
	// Trace is the caller's span context for the begin — optional: a
	// zero context means "untraced".
	Trace dtrace.SpanContext

	// exec / commit / abort; TxnID is unset on a request that begins.
	TxnID  uint64
	SQL    string
	Params []any
	Eager  bool
}

var replicaRequestTable = frameTable{name: "replicaRequest", fields: []fieldSpec{
	{1, "Seq", kindUint},
	{2, "Op", kindString},
	{3, "MinVersion", kindUint},
	{4, "Trace", kindSpan},
	{5, "TxnID", kindUint},
	{6, "SQL", kindString},
	{7, "Params", kindValues},
	{8, "Eager", kindBool},
	{9, "Begin", kindBool},
}}

type replicaResponse struct {
	Seq     uint64
	Err     string
	ErrCode string // "conflict", "crashed", "unavailable", "" — retryability over the wire

	// TxnID and Snapshot answer a request that began a transaction
	// (TxnID is set only if the begin succeeded); a commit also reports
	// its Snapshot.
	TxnID    uint64
	Snapshot uint64
	Result   *sql.Result
	Commit   replica.CommitResult
	// Touched is the transaction's observed table-set at commit (reads
	// and writes) — forwarded to the history checker.
	Touched []string

	// status
	Version uint64
	Active  int
	Crashed bool
	// Ready reports the serve gate: false while the replica's refresh
	// stream is down or it is catching up after a partition.
	Ready bool
}

var replicaResponseTable = frameTable{name: "replicaResponse", fields: []fieldSpec{
	{1, "Seq", kindUint},
	{2, "Err", kindString},
	{3, "ErrCode", kindString},
	{4, "TxnID", kindUint},
	{5, "Snapshot", kindUint},
	{6, "Result", kindResult},
	{7, "Commit", kindCommit},
	{8, "Touched", kindStrings},
	{9, "Version", kindUint},
	{10, "Active", kindInt},
	{11, "Crashed", kindBool},
	{12, "Ready", kindBool},
}}

func (r *replicaRequest) appendPayload(b []byte) ([]byte, error) {
	b = appendUintField(b, 1, r.Seq)
	b = appendStringField(b, 2, r.Op)
	b = appendUintField(b, 3, r.MinVersion)
	b = appendSpanField(b, 4, r.Trace)
	b = appendUintField(b, 5, r.TxnID)
	b = appendStringField(b, 6, r.SQL)
	b, err := appendValuesField(b, 7, r.Params)
	if err != nil {
		return nil, err
	}
	b = appendBoolField(b, 8, r.Eager)
	return appendBoolField(b, 9, r.Begin), nil
}

func (r *replicaRequest) parsePayload(p []byte) error {
	d := payloadReader{p: p}
	for d.more() {
		num, wt, err := d.tag()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			r.Seq, err = d.uintField(wt)
		case 2:
			r.Op, err = d.stringField(wt)
		case 3:
			r.MinVersion, err = d.uintField(wt)
		case 4:
			r.Trace, err = d.spanField(wt)
		case 5:
			r.TxnID, err = d.uintField(wt)
		case 6:
			r.SQL, err = d.stringField(wt)
		case 7:
			r.Params, err = d.valuesField(wt)
		case 8:
			r.Eager, err = d.boolField(wt)
		case 9:
			r.Begin, err = d.boolField(wt)
		default:
			err = d.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *replicaResponse) appendPayload(b []byte) ([]byte, error) {
	b = appendUintField(b, 1, r.Seq)
	b = appendStringField(b, 2, r.Err)
	b = appendStringField(b, 3, r.ErrCode)
	b = appendUintField(b, 4, r.TxnID)
	b = appendUintField(b, 5, r.Snapshot)
	b, err := appendResultField(b, 6, r.Result)
	if err != nil {
		return nil, err
	}
	b = appendCommitField(b, 7, &r.Commit)
	b = appendStringsField(b, 8, r.Touched)
	b = appendUintField(b, 9, r.Version)
	b = appendIntField(b, 10, r.Active)
	b = appendBoolField(b, 11, r.Crashed)
	return appendBoolField(b, 12, r.Ready), nil
}

func (r *replicaResponse) parsePayload(p []byte) error {
	d := payloadReader{p: p}
	for d.more() {
		num, wt, err := d.tag()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			r.Seq, err = d.uintField(wt)
		case 2:
			r.Err, err = d.stringField(wt)
		case 3:
			r.ErrCode, err = d.stringField(wt)
		case 4:
			r.TxnID, err = d.uintField(wt)
		case 5:
			r.Snapshot, err = d.uintField(wt)
		case 6:
			r.Result, err = d.resultField(wt)
		case 7:
			r.Commit, err = d.commitField(wt)
		case 8:
			r.Touched, err = d.stringsField(wt)
		case 9:
			r.Version, err = d.uintField(wt)
		case 10:
			r.Active, err = d.intField(wt)
		case 11:
			r.Crashed, err = d.boolField(wt)
		case 12:
			r.Ready, err = d.boolField(wt)
		default:
			err = d.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *replicaRequest) setSeq(n uint64) { r.Seq = n }
func (r *replicaResponse) seq() uint64    { return r.Seq }

// seqGuard validates one decoded request's sequence number against the
// connection's counter. Requests must arrive exactly in order: a gap or
// repeat means the stream desynchronized — most likely a duplicated
// frame — and the only safe move is to drop the connection before the
// duplicate executes anything.
type seqGuard struct{ last uint64 }

func (g *seqGuard) ok(seq uint64) bool {
	if seq != g.last+1 {
		return false
	}
	g.last = seq
	return true
}

func errCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, replica.ErrCertifyConflict), errors.Is(err, replica.ErrEarlyAbort):
		return "conflict"
	case errors.Is(err, replica.ErrCrashed):
		return "crashed"
	case errors.Is(err, ErrUnavailable), errors.Is(err, lb.ErrNoReplicas):
		return "unavailable"
	default:
		return "other"
	}
}

func decodeErr(resp *replicaResponse) error {
	if resp.Err == "" {
		return nil
	}
	switch resp.ErrCode {
	case "conflict":
		return fmt.Errorf("%w: %s", replica.ErrCertifyConflict, resp.Err)
	case "crashed":
		return fmt.Errorf("%w: %s", replica.ErrCrashed, resp.Err)
	case "unavailable":
		return fmt.Errorf("%w: %s", ErrUnavailable, resp.Err)
	default:
		return errors.New(resp.Err)
	}
}

// ReplicaServer exposes one replica's transaction API on a listener.
type ReplicaServer struct {
	rep  *replica.Replica
	ln   net.Listener
	opts options

	// locks after wireTxn.mu
	mu sync.Mutex
	// closed refuses new connections.
	// guarded by mu
	closed bool
	// conns is the set of live connections.
	// guarded by mu
	conns map[net.Conn]struct{}
	// txns maps wire txn IDs to open transactions.
	// guarded by mu
	txns map[uint64]*wireTxn
	// next is the last issued wire txn ID.
	// guarded by mu
	next uint64
	// stmts caches parses by statement text, at most stmtCacheCap
	// entries.
	// guarded by mu
	stmts map[string]*sql.Prepared
	// obsReqs is nil-safe until EnableObs.
	// guarded by mu
	obsReqs *obs.CounterVec
}

// EnableObs counts served requests per operation under
// sconrep_wire_requests_total{link="replica"}. Call before traffic.
func (s *ReplicaServer) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.obsReqs = reg.CounterVec("sconrep_wire_requests_total",
		"Wire requests served, by link and operation.", "op", "link", "replica")
	s.mu.Unlock()
}

// ServeReplica starts serving rep on addr.
func ServeReplica(rep *replica.Replica, addr string, opts ...Option) (*ReplicaServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &ReplicaServer{
		rep:   rep,
		ln:    ln,
		opts:  buildOptions(opts),
		conns: make(map[net.Conn]struct{}),
		txns:  make(map[uint64]*wireTxn),
		stmts: make(map[string]*sql.Prepared),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *ReplicaServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and severs live connections.
func (s *ReplicaServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *ReplicaServer) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.handle(c)
	}
}

// stmtCacheCap bounds the statement cache: statement texts come from
// clients, and an application that inlines literals into its SQL
// would otherwise grow the cache without limit.
const stmtCacheCap = 1024

// prepared caches parses by statement text. On overflow one arbitrary
// entry is evicted; a workload's hot statements are re-parsed at most
// once per eviction.
func (s *ReplicaServer) prepared(text string) (*sql.Prepared, error) {
	s.mu.Lock()
	p, ok := s.stmts[text]
	s.mu.Unlock()
	if ok {
		return p, nil
	}
	// The cached key, and the literals the parse takes from the text,
	// outlive the request frame the text was decoded from.
	text = strings.Clone(text)
	p, err := sql.Prepare(text)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if len(s.stmts) >= stmtCacheCap {
		for k := range s.stmts {
			delete(s.stmts, k)
			break
		}
	}
	s.stmts[text] = p
	s.mu.Unlock()
	return p, nil
}

// wireTxn is one transaction open over the wire.
type wireTxn struct {
	id uint64
	// mu serializes the transaction's operations. They arrive on the
	// gateway's pooled connections, so an abort (the client connection
	// died) can arrive on one while an exec still runs on another, and
	// replica.Txn is not safe for concurrent use.
	mu sync.Mutex
	// guarded by mu
	tx *replica.Txn
	// done marks the transaction committed or aborted.
	// guarded by mu
	done bool
}

// register opens tx under a fresh wire txn ID.
func (s *ReplicaServer) register(tx *replica.Txn) *wireTxn {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	wt := &wireTxn{id: s.next, tx: tx}
	s.txns[wt.id] = wt
	return wt
}

func (s *ReplicaServer) getTxn(id uint64) (*wireTxn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wt, ok := s.txns[id]
	return wt, ok
}

func (s *ReplicaServer) dropTxn(id uint64) {
	s.mu.Lock()
	delete(s.txns, id)
	s.mu.Unlock()
}

func (s *ReplicaServer) handle(c net.Conn) {
	defer c.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	if d := s.opts.to.Idle; d > 0 {
		c.SetReadDeadline(time.Now().Add(d))
	}
	br, release, err := acceptConn(c, replicaPreamble)
	if err != nil {
		return
	}
	defer release()
	var guard seqGuard
	// One request and one response per connection, reused: exchanges
	// are serial, and nothing keeps either past its exchange.
	var req replicaRequest
	var resp replicaResponse
	for {
		if d := s.opts.to.Idle; d > 0 {
			c.SetReadDeadline(time.Now().Add(d))
		}
		req = replicaRequest{}
		if err := recvFrame(br, &req); err != nil {
			return
		}
		if !guard.ok(req.Seq) {
			return
		}
		c.SetReadDeadline(time.Time{})
		s.dispatch(&req, &resp)
		resp.Seq = req.Seq
		if d := s.opts.to.Call; d > 0 {
			c.SetWriteDeadline(time.Now().Add(d))
		}
		if err := writeFrame(c, nil, &resp); err != nil {
			return
		}
	}
}

// fail records err as the response's error.
func (r *replicaResponse) fail(err error) *replicaResponse {
	r.Err = err.Error()
	r.ErrCode = errCode(err)
	return r
}

// dispatch serves one request, filling resp.
func (s *ReplicaServer) dispatch(req *replicaRequest, resp *replicaResponse) *replicaResponse {
	s.mu.Lock()
	reqs := s.obsReqs
	s.mu.Unlock()
	reqs.With(req.Op).Inc()
	*resp = replicaResponse{}
	switch req.Op {
	case "exec", "commit":
		return s.txnRequest(req, resp)
	case "abort":
		if wt, ok := s.getTxn(req.TxnID); ok {
			s.dropTxn(wt.id)
			wt.mu.Lock()
			if !wt.done {
				wt.done = true
				wt.tx.Abort()
			}
			wt.mu.Unlock()
		}
	case "status":
		resp.Version = s.rep.Version()
		resp.Active = s.rep.Active()
		resp.Crashed = s.rep.Crashed()
		resp.Ready = true
		if g := s.opts.gate; g != nil && g() != nil {
			resp.Ready = false
		}
	default:
		return resp.fail(fmt.Errorf("wire: unknown replica op %q", req.Op))
	}
	return resp
}

// txnRequest serves an exec or commit. One that carries the begin
// passes the serve gate, begins the transaction at its MinVersion and
// registers it before running the request on it.
func (s *ReplicaServer) txnRequest(req *replicaRequest, resp *replicaResponse) *replicaResponse {
	var wt *wireTxn
	if req.Begin {
		if g := s.opts.gate; g != nil {
			if err := g(); err != nil {
				return resp.fail(err)
			}
		}
		tx, err := s.rep.BeginCtx(req.MinVersion, metrics.NewTxnTimer(), req.Trace)
		if err != nil {
			return resp.fail(err)
		}
		wt = s.register(tx)
		resp.TxnID = wt.id
		resp.Snapshot = tx.Snapshot()
	} else {
		var ok bool
		if wt, ok = s.getTxn(req.TxnID); !ok {
			return resp.fail(replica.ErrTxnDone)
		}
	}
	wt.mu.Lock()
	defer wt.mu.Unlock()
	if wt.done {
		return resp.fail(replica.ErrTxnDone)
	}
	if req.Op == "commit" {
		return s.commit(wt, req, resp)
	}
	return s.exec(wt, req, resp)
}

// exec runs one statement on wt.
// caller holds wt.mu
func (s *ReplicaServer) exec(wt *wireTxn, req *replicaRequest, resp *replicaResponse) *replicaResponse {
	p, err := s.prepared(req.SQL)
	if err != nil {
		return resp.fail(err)
	}
	// String parameters can land in stored rows; copy them out of the
	// request frame so a row never pins it.
	for i, v := range req.Params {
		if str, ok := v.(string); ok {
			req.Params[i] = strings.Clone(str)
		}
	}
	res, err := wt.tx.Exec(p, req.Params...)
	if err != nil {
		if errors.Is(err, replica.ErrEarlyAbort) || errors.Is(err, replica.ErrCrashed) {
			wt.done = true
			s.dropTxn(wt.id)
		}
		return resp.fail(err)
	}
	resp.Result = res
	return resp
}

// commit ends wt through the consistency mode's commit path.
// caller holds wt.mu
func (s *ReplicaServer) commit(wt *wireTxn, req *replicaRequest, resp *replicaResponse) *replicaResponse {
	wt.done = true
	s.dropTxn(wt.id)
	touched := wt.tx.Touched()
	cres, err := wt.tx.Commit(req.Eager)
	if err != nil {
		return resp.fail(err)
	}
	resp.Commit = cres
	resp.Snapshot = wt.tx.Snapshot()
	resp.Touched = touched
	return resp
}

// remoteReplica is the gateway's handle on one replica process. It
// implements lb.Node: the active count is tracked gateway-side (the
// gateway initiates every transaction), and health is derived from
// link errors plus status probes.
type remoteReplica struct {
	id      int
	pool    *connPool
	active  atomic.Int64
	healthy atomic.Bool
}

func newRemoteReplica(id int, addr string, o *options) *remoteReplica {
	r := &remoteReplica{id: id, pool: newConnPool(addr, replicaPreamble, nil, o.dialer(addr), o.to)}
	r.healthy.Store(true)
	return r
}

// ID implements lb.Node.
func (r *remoteReplica) ID() int { return r.id }

// Active implements lb.Node.
func (r *remoteReplica) Active() int { return int(r.active.Load()) }

// Crashed implements lb.Node.
func (r *remoteReplica) Crashed() bool { return !r.healthy.Load() }

// call performs one exchange, decoding into resp (which it returns).
func (r *remoteReplica) call(req *replicaRequest, resp *replicaResponse) (*replicaResponse, error) {
	*resp = replicaResponse{}
	if err := r.pool.call(req, resp); err != nil {
		r.healthy.Store(false)
		return nil, err
	}
	if resp.ErrCode == "crashed" || resp.ErrCode == "unavailable" {
		r.healthy.Store(false)
	}
	return resp, decodeErr(resp)
}

// probe refreshes the health flag; the gateway calls it periodically
// so crashed or gated replicas rejoin the routing set once they
// recover or catch up.
func (r *remoteReplica) probe() {
	var resp replicaResponse
	if err := r.pool.call(&replicaRequest{Op: "status"}, &resp); err != nil {
		r.healthy.Store(false)
		return
	}
	r.healthy.Store(!resp.Crashed && resp.Ready)
}
