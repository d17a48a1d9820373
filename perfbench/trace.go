package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/wire"
)

// Span kinds recorded around the cluster's public calls. A transaction's
// spans share its ID; spanTxn is the parent of the others.
const (
	spanTxn = iota
	spanBegin
	spanExec
	spanCommitRO
	spanCommitUpd
)

var spanNames = [...]string{"txn", "begin", "exec", "commit_ro", "commit_upd"}

// span is one recorded interval, in nanoseconds since the run's origin.
type span struct {
	txn        uint64
	kind       uint8
	start, end int64
}

// spanBuf holds one session's spans in memory until the run ends. A nil
// *spanBuf records nothing, so untraced operations pay one nil check.
type spanBuf struct {
	origin time.Time
	// nextTxn mints transaction IDs; the session index sits in the top
	// bits so IDs never collide across sessions.
	nextTxn uint64
	spans   []span
}

func newSpanBuf(origin time.Time, session int) *spanBuf {
	return &spanBuf{origin: origin, nextTxn: uint64(session) << 48}
}

func (b *spanBuf) newTxn() uint64 {
	if b == nil {
		return 0
	}
	b.nextTxn++
	return b.nextTxn
}

func (b *spanBuf) add(txn uint64, kind uint8, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{txn: txn, kind: kind,
		start: int64(start.Sub(b.origin)), end: int64(end.Sub(b.origin))})
}

// writeSpans writes spans as gzip-compressed JSON lines, one span per
// line: {"trace":…,"span":…,"parent":…,"name":…,"start_ns":…,"end_ns":…}.
// The parent span of every child is the transaction's spanTxn.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	for _, s := range spans {
		id := s.txn<<3 | uint64(s.kind)
		parent := uint64(0)
		if s.kind != spanTxn {
			parent = s.txn << 3
		}
		fmt.Fprintf(bw, `{"trace":%d,"span":%d,"parent":%d,"name":"cluster.%s","start_ns":%d,"end_ns":%d}`+"\n",
			s.txn, id, parent, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- wire: a counting net.Conn plugged into NetConfig.DialerFor ----

// linkStats counts one link class's traffic as seen from its dialing
// end: bytes both ways, write calls, and time blocked in Read.
type linkStats struct {
	bytes, writes, readWaitNs, dials atomic.Int64
}

// wireCounters counts the client, gateway→replica and replica→certifier
// links. Bytes, writes and read waits count only while on is set; dials
// always count.
type wireCounters struct {
	on                    *atomic.Bool
	client, replica, cert linkStats
}

func (w *wireCounters) dialerFor(link string) wire.Dialer {
	st := &w.client
	switch {
	case strings.HasPrefix(link, "replica/"):
		st = &w.replica
	case strings.HasPrefix(link, "cert/"):
		st = &w.cert
	case link != cluster.LinkClient:
		panic("perfbench: unknown link " + link)
	}
	return func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		st.dials.Add(1)
		return &countingConn{Conn: conn, st: st, on: w.on}, nil
	}
}

func (w *wireCounters) totalDials() int64 {
	return w.client.dials.Load() + w.replica.dials.Load() + w.cert.dials.Load()
}

type countingConn struct {
	net.Conn
	st *linkStats
	on *atomic.Bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.on.Load() {
		c.st.bytes.Add(int64(n))
		c.st.writes.Add(1)
	}
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	if !c.on.Load() {
		return c.Conn.Read(p)
	}
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.st.readWaitNs.Add(int64(time.Since(t)))
	c.st.bytes.Add(int64(n))
	return n, err
}
