package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"sconrep/internal/obs/dtrace"
	"sconrep/internal/sql"
)

// Client is an application's connection to a gateway: one session, one
// transaction at a time.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	to   Timeouts
	seq  uint64
	// req / resp are the session's exchange, reused across its serial
	// calls; a response is valid until the next call.
	req  clientRequest
	resp clientResponse
	// broken is set on any transport error: the session's gateway state
	// is unknown and the caller must reconnect with a fresh session.
	broken atomic.Bool

	// begin holds the begin fields of a transaction begun but not yet
	// sent (begin.Begin is set) until its first request carries them.
	begin clientRequest
	// open mirrors the gateway: its last response said the session has
	// a transaction open.
	open bool
	// snap is the transaction's snapshot, from the response that
	// carried its begin.
	snap uint64
}

// Dial opens a session against a gateway.
func Dial(addr, sessionID string, opts ...Option) (*Client, error) {
	o := buildOptions(opts)
	conn, err := o.dialer(addr)("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial gateway %s: %w", addr, err)
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), to: o.to}
	pre, err := preamble(clientPreamble, &clientHello{SessionID: sessionID})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if d := o.to.Call; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := conn.Write(pre); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: hello: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	return c, nil
}

// Close ends the session.
func (c *Client) Close() error { return c.conn.Close() }

var errBroken = errors.New("wire: session broken, reconnect")

// Broken reports whether the session hit a transport error. A broken
// client cannot be reused: the gateway may have already aborted the
// open transaction and dropped the session's version floor.
func (c *Client) Broken() bool { return c.broken.Load() }

func (c *Client) call(req clientRequest) (*clientResponse, error) {
	if c.broken.Load() {
		return nil, errBroken
	}
	c.seq++
	c.req = req
	c.req.Seq = c.seq
	if d := c.to.Call; d > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := writeFrame(c.conn, nil, &c.req); err != nil {
		c.broken.Store(true)
		return nil, fmt.Errorf("wire: send: %w", err)
	}
	if d := c.to.Call; d > 0 {
		c.conn.SetReadDeadline(time.Now().Add(d))
	}
	resp := &c.resp
	*resp = clientResponse{}
	if err := recvFrame(c.br, resp); err != nil {
		c.broken.Store(true)
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	if resp.Seq != c.seq {
		c.broken.Store(true)
		return nil, fmt.Errorf("wire: response out of sequence (got %d, want %d)", resp.Seq, c.seq)
	}
	c.conn.SetDeadline(time.Time{})
	c.open = resp.Open
	if resp.Err != "" {
		fake := replicaResponse{Err: resp.Err, ErrCode: resp.ErrCode}
		return resp, decodeErr(&fake)
	}
	return resp, nil
}

// RegisterTxn declares a named transaction's table-set at the gateway
// (fine-grained consistency).
func (c *Client) RegisterTxn(name string, tables []string) error {
	_, err := c.call(clientRequest{Op: "register", Name: name, Tables: tables})
	return err
}

var (
	errTxnOpen = errors.New("wire: transaction already open on this session")
	errNoTxn   = errors.New("wire: no open transaction")
)

// Begin starts a transaction under the given name; see BeginCtx.
func (c *Client) Begin(txnName string) error {
	return c.BeginCtx(txnName, nil, dtrace.SpanContext{})
}

// BeginCtx starts a transaction under txnName or, when tables is
// non-empty, tagged with that explicit table-set (the fine-grained
// mode's footnote-1 alternative to registration). sc is the caller's
// span context, which the gateway threads through its routing decision
// and the replica begin so the whole chain joins one trace.
//
// BeginCtx sends nothing: the transaction's first Exec, or its
// CommitEx when it runs no statement, carries the begin. Routing and
// the version wait happen there, and so do their errors. A begin that
// fails leaves the session idle, so the caller begins again.
func (c *Client) BeginCtx(txnName string, tables []string, sc dtrace.SpanContext) error {
	if c.broken.Load() {
		return errBroken
	}
	if c.begin.Begin || c.open {
		return errTxnOpen
	}
	c.snap = 0
	c.begin = clientRequest{Begin: true, TxnName: txnName, Tables: tables, Trace: sc}
	return nil
}

// Snapshot returns the version the session's transaction reads at, as
// reported by the response that carried its begin; zero before that
// response, or when the begin failed.
func (c *Client) Snapshot() uint64 { return c.snap }

// txnCall sends a transaction's exec or commit. The transaction's
// first request also carries its begin.
func (c *Client) txnCall(req clientRequest) (*clientResponse, error) {
	if !c.begin.Begin {
		if !c.open {
			return nil, errNoTxn
		}
		return c.call(req)
	}
	req.Begin, req.TxnName, req.Tables, req.Trace = true, c.begin.TxnName, c.begin.Tables, c.begin.Trace
	c.begin = clientRequest{}
	resp, err := c.call(req)
	if resp != nil {
		c.snap = resp.Snapshot
	}
	return resp, err
}

// Exec runs one SQL statement in the open transaction. The result's
// strings share one buffer, the response frame; a caller that keeps a
// few values from a large result long-term should copy them
// (strings.Clone) so they do not pin the rest.
func (c *Client) Exec(query string, params ...any) (*sql.Result, error) {
	resp, err := c.txnCall(clientRequest{Op: "exec", SQL: query, Params: params})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// CommitInfo describes an acknowledged commit as the client saw it.
type CommitInfo struct {
	// Version is the commit version (snapshot version when ReadOnly).
	Version  uint64
	ReadOnly bool
	// Snapshot is the version the transaction read at.
	Snapshot uint64
	// WriteTables / ReadTables are the observed table-sets, for the
	// history checker.
	WriteTables []string
	ReadTables  []string
}

// Commit finishes the open transaction and returns the commit version
// (snapshot version for read-only transactions).
func (c *Client) Commit() (version uint64, readOnly bool, err error) {
	info, err := c.CommitEx()
	return info.Version, info.ReadOnly, err
}

// CommitEx finishes the open transaction and returns the full commit
// observation. A transaction that ran no statement begins and commits
// in this one exchange, as a read-only transaction.
func (c *Client) CommitEx() (CommitInfo, error) {
	resp, err := c.txnCall(clientRequest{Op: "commit"})
	if err != nil {
		return CommitInfo{}, err
	}
	return CommitInfo{
		Version:     resp.Version,
		ReadOnly:    resp.ReadOnly,
		Snapshot:    resp.Snapshot,
		WriteTables: resp.WriteTables,
		ReadTables:  resp.ReadTables,
	}, nil
}

// Abort discards the open transaction. One that has not sent its
// begin yet has nothing at the gateway, and aborting it sends nothing.
func (c *Client) Abort() error {
	c.begin = clientRequest{}
	if !c.open {
		return nil
	}
	_, err := c.call(clientRequest{Op: "abort"})
	return err
}
