package wire

import (
	"bufio"
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

// Broken reports whether the session hit a transport error. A broken
// client cannot be reused: the gateway may have already aborted the
// open transaction and dropped the session's version floor.
func (c *Client) Broken() bool { return c.broken.Load() }

func (c *Client) call(req clientRequest) (*clientResponse, error) {
	if c.broken.Load() {
		return nil, fmt.Errorf("wire: session broken, reconnect")
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

// Begin starts a transaction under the given name.
func (c *Client) Begin(txnName string) error {
	_, err := c.BeginTx(txnName)
	return err
}

// BeginTx starts a transaction and returns the snapshot version it
// reads at.
func (c *Client) BeginTx(txnName string) (snapshot uint64, err error) {
	return c.BeginTxCtx(txnName, dtrace.SpanContext{})
}

// BeginTxCtx is BeginTx carrying the caller's span context, which the
// gateway threads through its routing decision and the replica begin
// so the whole chain joins one trace.
func (c *Client) BeginTxCtx(txnName string, sc dtrace.SpanContext) (snapshot uint64, err error) {
	resp, err := c.call(clientRequest{Op: "begin", TxnName: txnName, Trace: sc})
	if err != nil {
		return 0, err
	}
	return resp.Snapshot, nil
}

// BeginTablesTx starts a transaction tagged with an explicit table-set
// (the fine-grained mode's footnote-1 alternative to registration).
func (c *Client) BeginTablesTx(tables []string) (snapshot uint64, err error) {
	return c.BeginTablesTxCtx(tables, dtrace.SpanContext{})
}

// BeginTablesTxCtx is BeginTablesTx carrying the caller's span context.
func (c *Client) BeginTablesTxCtx(tables []string, sc dtrace.SpanContext) (snapshot uint64, err error) {
	resp, err := c.call(clientRequest{Op: "begin", Tables: tables, Trace: sc})
	if err != nil {
		return 0, err
	}
	return resp.Snapshot, nil
}

// Exec runs one SQL statement in the open transaction. The result's
// strings share one buffer, the response frame; a caller that keeps a
// few values from a large result long-term should copy them
// (strings.Clone) so they do not pin the rest.
func (c *Client) Exec(query string, params ...any) (*sql.Result, error) {
	resp, err := c.call(clientRequest{Op: "exec", SQL: query, Params: params})
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
// observation.
func (c *Client) CommitEx() (CommitInfo, error) {
	resp, err := c.call(clientRequest{Op: "commit"})
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

// Abort discards the open transaction.
func (c *Client) Abort() error {
	_, err := c.call(clientRequest{Op: "abort"})
	return err
}
