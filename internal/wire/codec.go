package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"slices"
	"sync"
	"unsafe"

	"sconrep/internal/certifier"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/writeset"
)

// The wire codec. Every protocol — client⇄gateway, gateway⇄replica,
// replica⇄certifier, and the certifier's refresh stream — speaks one
// framing:
//
//	connection: 4-byte preamble naming the protocol, sent once by the
//	            dialer
//	frame:      u32 payload length (little-endian), payload
//	payload:    fields, each a uvarint tag (field number << 1 | wire
//	            type) followed by its value
//
// Wire type 0 (wtVarint) is one uvarint; wire type 1 (wtBytes) is a
// uvarint length and that many bytes. Every frame type declares a
// field table (frameTable: number, name, kind) next to its hand-written
// append/parse pair. Zero values are omitted; a decoder zero-fills a
// field that never arrives and skips, by its wire type, a field number
// it does not know. That is the rolling-upgrade contract: a peer built
// before a field existed ignores it, and one built after reads its
// absence as the zero value. The wirecompat analyzer locks every table
// in schema.lock, so removing, renumbering or retyping a field is a
// reviewed change.
//
// Row values (statement parameters, result rows, writeset rows) are
// tagged values: a tag byte (nil/int64/float64/string/bool) and the
// value bytes. Decoding reads each frame into one exact-size buffer
// and aliases every decoded string into it with unsafe.String: no
// copies, no per-string allocations. The buffer is freshly allocated
// per frame and never reused, so the aliases stay valid as long as the
// decoded values live; one retained string pins its whole frame, so
// the few strings that outlive their request (statement-cache keys,
// session IDs, registered table-sets) are cloned where they are kept.

// Connection preambles, one per protocol. Each names the codec version
// and the protocol the dialer expects, so a connection that reaches the
// wrong kind of server (a stale address, a port reused after a
// restart) fails at once instead of having one protocol's frames parse
// as another's. The first byte is one a gob decoder rejects outright (a
// uvarint prefix announcing 11 bytes), so a gob peer from a pre-binary
// build fails at its first frame on either side instead of hanging on a
// misread length.
const (
	clientPreamble  = "\xf5SC1"
	replicaPreamble = "\xf5SR1"
	certPreamble    = "\xf5SK1"
)

// maxFrame bounds one frame's payload (64 MiB). A length prefix beyond
// it means a corrupt or hostile stream; the connection is torn down
// rather than the allocation attempted.
const maxFrame = 64 << 20

// Wire types: the low bit of every field tag, telling a decoder how to
// skip a field it does not know.
const (
	wtVarint = 0
	wtBytes  = 1
)

// fieldKind names how one field's value is encoded. The kind fixes the
// wire type (uint, int and bool travel as varints, every other kind
// length-delimited); changing a field's kind is a wire break the schema
// lock reports.
type fieldKind string

const (
	kindUint      fieldKind = "uint"      // uint64: uvarint
	kindInt       fieldKind = "int"       // int: zigzag varint
	kindBool      fieldKind = "bool"      // bool: uvarint 1 (false omitted)
	kindString    fieldKind = "string"    // bytes
	kindStrings   fieldKind = "strings"   // []string: count, then length-prefixed strings
	kindInts      fieldKind = "ints"      // []int: count, then zigzag varints
	kindValues    fieldKind = "values"    // []any: count, then tagged values
	kindRows      fieldKind = "rows"      // [][]any: count, then one values list per row
	kindSpan      fieldKind = "span"      // dtrace.SpanContext: 16-byte trace ID, 8-byte span ID
	kindTableVers fieldKind = "tablevers" // map[string]uint64: count, then sorted (string, uvarint) pairs
	kindWriteSet  fieldKind = "writeset"  // *writeset.WriteSet: flags, [span], count, items (present iff non-nil)
	kindResult    fieldKind = "result"    // *sql.Result: nested resultTable (present iff non-nil)
	kindCommit    fieldKind = "commit"    // replica.CommitResult: nested commitTable
	kindDecision  fieldKind = "decision"  // certifier.Decision: nested decisionTable
	kindRefreshes fieldKind = "refreshes" // []certifier.Refresh: count, then nested refreshTable messages
)

// frameTable declares one frame (or nested message) type's fields. It
// is the reviewed statement of what travels on the wire: the skew
// tests drive every table against its append/parse pair, and the
// wirecompat analyzer reads the literals statically and diffs them
// against schema.lock. Field numbers are never reused.
type frameTable struct {
	name   string
	fields []fieldSpec
}

// fieldSpec is one field table entry; name is the Go struct field.
type fieldSpec struct {
	num  uint64
	name string
	kind fieldKind
}

// Nested message tables, shared by several frames.

var resultTable = frameTable{name: "result", fields: []fieldSpec{
	{1, "Columns", kindStrings},
	{2, "Rows", kindRows},
	{3, "Affected", kindInt},
}}

var commitTable = frameTable{name: "commitResult", fields: []fieldSpec{
	{1, "Version", kindUint},
	{2, "ReadOnly", kindBool},
	{3, "WrittenTables", kindStrings},
	{4, "TableVersions", kindTableVers},
}}

var decisionTable = frameTable{name: "decision", fields: []fieldSpec{
	{1, "Commit", kindBool},
	{2, "Version", kindUint},
}}

var refreshTable = frameTable{name: "refresh", fields: []fieldSpec{
	{1, "TxnID", kindUint},
	{2, "Version", kindUint},
	{3, "Origin", kindInt},
	{4, "WS", kindWriteSet},
}}

var errFrameCorrupt = errors.New("wire: corrupt frame")

// outFrame / inFrame are the append/parse halves every frame type
// implements. They handle the payload only; appendFrame and readFrame
// add and strip the length prefix.
type outFrame interface {
	appendPayload(b []byte) ([]byte, error)
}

type inFrame interface {
	parsePayload(p []byte) error
}

// frameBufPool recycles encode buffers. The decode side cannot pool:
// decoded strings alias their frame.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

// maxPooledFrame keeps an occasional huge frame (a long history page)
// from pinning its buffer in the pool.
const maxPooledFrame = 1 << 20

// writeFrame encodes f behind pre (the connection preamble on a fresh
// connection, else nil) and sends it in one Write.
func writeFrame(w io.Writer, pre []byte, f outFrame) error {
	bp := frameBufPool.Get().(*[]byte)
	b, err := appendFrame(append((*bp)[:0], pre...), f)
	if err == nil {
		_, err = w.Write(b)
		if cap(b) <= maxPooledFrame {
			*bp = b[:0]
		}
	}
	frameBufPool.Put(bp)
	return err
}

// appendFrame appends f as one complete frame (length prefix and
// payload) to b.
func appendFrame(b []byte, f outFrame) ([]byte, error) {
	hdr := len(b)
	b, err := f.appendPayload(append(b, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	n := len(b) - hdr - 4
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(b[hdr:], uint32(n))
	return b, nil
}

// readFrame reads one frame's payload into a fresh exact-size buffer.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// recvFrame reads and decodes one frame into f.
func recvFrame(r io.Reader, f inFrame) error {
	p, err := readFrame(r)
	if err != nil {
		return err
	}
	return f.parsePayload(p)
}

// readerPool recycles the accepting side's per-connection read
// buffers: gateways churn through client sessions.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReader(nil) },
}

// acceptConn wraps an accepted connection's read side and checks the
// dialer's preamble, logging a peer that sends something else (the
// peer itself, if it speaks gob, only sees the connection close). The
// returned release func must run when the handler exits.
func acceptConn(c net.Conn, want string) (*bufio.Reader, func(), error) {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(c)
	release := func() {
		br.Reset(nil)
		readerPool.Put(br)
	}
	m := make([]byte, len(want))
	if _, err := io.ReadFull(br, m); err != nil {
		release()
		return nil, nil, err
	}
	if string(m) != want {
		release()
		why := "peer predates the binary wire codec (gob) or is not a sconrep node"
		if m[0] == want[0] && m[1] == want[1] {
			why = "peer dialed a different sconrep protocol"
		}
		err := fmt.Errorf("wire: %s sent preamble %x, want %x: %s", c.RemoteAddr(), m, want, why)
		log.Print(err)
		return nil, nil, err
	}
	return br, release, nil
}

// preamble returns the bytes a dialer sends ahead of its first frame:
// the protocol's preamble, then the hello frame when it has one.
func preamble(link string, hello outFrame) ([]byte, error) {
	b := []byte(link)
	if hello == nil {
		return b, nil
	}
	return appendFrame(b, hello)
}

// ---- encoding helpers: each appends one field, omitting zero values ----

func appendTag(b []byte, num, wt uint64) []byte {
	return binary.AppendUvarint(b, num<<1|wt)
}

func appendUintField(b []byte, num, v uint64) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendUvarint(appendTag(b, num, wtVarint), v)
}

func appendIntField(b []byte, num uint64, v int) []byte {
	if v == 0 {
		return b
	}
	return binary.AppendVarint(appendTag(b, num, wtVarint), int64(v))
}

func appendBoolField(b []byte, num uint64, v bool) []byte {
	if !v {
		return b
	}
	return append(appendTag(b, num, wtVarint), 1)
}

func appendStringField(b []byte, num uint64, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(appendTag(b, num, wtBytes), s)
}

// openBytes starts a length-delimited field: the tag and a one-byte
// length placeholder. closeBytes patches the length in, widening the
// placeholder when the body reached 128 bytes.
func openBytes(b []byte, num uint64) ([]byte, int) {
	return openBody(appendTag(b, num, wtBytes))
}

// openBody appends just the length placeholder, for an untagged
// length-prefixed element inside a list.
func openBody(b []byte) ([]byte, int) {
	return append(b, 0), len(b)
}

func closeBytes(b []byte, mark int) []byte {
	n := len(b) - mark - 1
	if n < 0x80 {
		b[mark] = byte(n)
		return b
	}
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], uint64(n))
	b = append(b, tmp[:k-1]...)
	copy(b[mark+k:], b[mark+1:mark+1+n])
	copy(b[mark:], tmp[:k])
	return b
}

func appendStringsField(b []byte, num uint64, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b, mark := openBytes(b, num)
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return closeBytes(b, mark)
}

func appendIntsField(b []byte, num uint64, vs []int) []byte {
	if len(vs) == 0 {
		return b
	}
	b, mark := openBytes(b, num)
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return closeBytes(b, mark)
}

func appendValuesField(b []byte, num uint64, vs []any) ([]byte, error) {
	if len(vs) == 0 {
		return b, nil
	}
	b, mark := openBytes(b, num)
	b, err := appendValues(b, vs)
	if err != nil {
		return nil, err
	}
	return closeBytes(b, mark), nil
}

// appendValues appends a count and the tagged values.
func appendValues(b []byte, vs []any) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		var err error
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendSpanField(b []byte, num uint64, sc dtrace.SpanContext) []byte {
	if sc == (dtrace.SpanContext{}) {
		return b
	}
	b = append(appendTag(b, num, wtBytes), 16+8)
	b = append(b, sc.Trace[:]...)
	return append(b, sc.Span[:]...)
}

// appendTableVersField encodes the map with sorted keys, so one value
// always has one encoding (the fuzz oracle compares bytes).
func appendTableVersField(b []byte, num uint64, m map[string]uint64) []byte {
	if len(m) == 0 {
		return b
	}
	var stack [8]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b, mark := openBytes(b, num)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, m[k])
	}
	return closeBytes(b, mark)
}

// Writeset flags.
const flagTrace = 1 << 0 // writeset carries a span context (16+8 bytes)

// appendWriteSetField encodes ws: a flags byte, the span context when
// flagged, and the items. A nil writeset (a refresh skip marker) is
// omitted; an empty one is present with an empty item list.
func appendWriteSetField(b []byte, num uint64, ws *writeset.WriteSet) ([]byte, error) {
	if ws == nil {
		return b, nil
	}
	b, mark := openBytes(b, num)
	var flags byte
	if ws.Trace != nil {
		flags |= flagTrace
	}
	b = append(b, flags)
	if tr := ws.Trace; tr != nil {
		b = append(b, tr.Trace[:]...)
		b = append(b, tr.Span[:]...)
	}
	b = binary.AppendUvarint(b, uint64(len(ws.Items)))
	for j := range ws.Items {
		it := &ws.Items[j]
		b = appendString(b, it.Table)
		b = appendString(b, it.Key)
		b = append(b, byte(it.Op))
		if it.Row == nil {
			b = binary.AppendUvarint(b, 0)
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(it.Row))+1)
		for _, v := range it.Row {
			var err error
			if b, err = appendValue(b, v); err != nil {
				return nil, err
			}
		}
	}
	return closeBytes(b, mark), nil
}

func appendResultField(b []byte, num uint64, r *sql.Result) ([]byte, error) {
	if r == nil {
		return b, nil
	}
	b, mark := openBytes(b, num)
	b = appendStringsField(b, 1, r.Columns)
	if len(r.Rows) > 0 {
		rows, rmark := openBytes(b, 2)
		rows = binary.AppendUvarint(rows, uint64(len(r.Rows)))
		for _, row := range r.Rows {
			var err error
			if rows, err = appendValues(rows, row); err != nil {
				return nil, err
			}
		}
		b = closeBytes(rows, rmark)
	}
	b = appendIntField(b, 3, r.Affected)
	return closeBytes(b, mark), nil
}

func appendCommitField(b []byte, num uint64, c *replica.CommitResult) []byte {
	if c.Version == 0 && !c.ReadOnly && len(c.WrittenTables) == 0 && len(c.TableVersions) == 0 {
		return b
	}
	b, mark := openBytes(b, num)
	b = appendUintField(b, 1, c.Version)
	b = appendBoolField(b, 2, c.ReadOnly)
	b = appendStringsField(b, 3, c.WrittenTables)
	b = appendTableVersField(b, 4, c.TableVersions)
	return closeBytes(b, mark)
}

func appendDecisionField(b []byte, num uint64, d certifier.Decision) []byte {
	if d == (certifier.Decision{}) {
		return b
	}
	b, mark := openBytes(b, num)
	b = appendBoolField(b, 1, d.Commit)
	b = appendUintField(b, 2, d.Version)
	return closeBytes(b, mark)
}

func appendRefreshesField(b []byte, num uint64, rs []certifier.Refresh) ([]byte, error) {
	if len(rs) == 0 {
		return b, nil
	}
	b, mark := openBytes(b, num)
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		var rmark int
		b, rmark = openBody(b)
		b = appendUintField(b, 1, r.TxnID)
		b = appendUintField(b, 2, r.Version)
		b = appendIntField(b, 3, r.Origin)
		var err error
		if b, err = appendWriteSetField(b, 4, r.WS); err != nil {
			return nil, err
		}
		b = closeBytes(b, rmark)
	}
	return closeBytes(b, mark), nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Row value tags.
const (
	tagNil = iota
	tagInt64
	tagFloat64
	tagString
	tagFalse
	tagTrue
)

func appendValue(buf []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case int64:
		return binary.AppendVarint(append(buf, tagInt64), v), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(buf, tagFloat64), math.Float64bits(v)), nil
	case string:
		return appendString(append(buf, tagString), v), nil
	case bool:
		if v {
			return append(buf, tagTrue), nil
		}
		return append(buf, tagFalse), nil
	default:
		return nil, fmt.Errorf("wire: unsupported row value %T", v)
	}
}

// ---- decoding ----

// payloadReader walks one frame payload (or a nested message inside
// it). Every read is bounds-checked; any truncation or malformed varint
// surfaces as errFrameCorrupt, and count fields are sanity-bounded by
// the remaining bytes before any allocation, so a hostile frame cannot
// force a huge make().
type payloadReader struct {
	p   []byte
	off int
}

func (d *payloadReader) remaining() int { return len(d.p) - d.off }

func (d *payloadReader) more() bool { return d.off < len(d.p) }

func (d *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		return 0, errFrameCorrupt
	}
	d.off += n
	return v, nil
}

func (d *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(d.p[d.off:])
	if n <= 0 {
		return 0, errFrameCorrupt
	}
	d.off += n
	return v, nil
}

func (d *payloadReader) byte() (byte, error) {
	if d.off >= len(d.p) {
		return 0, errFrameCorrupt
	}
	b := d.p[d.off]
	d.off++
	return b, nil
}

func (d *payloadReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > d.remaining() {
		return nil, errFrameCorrupt
	}
	b := d.p[d.off : d.off+n]
	d.off += n
	return b, nil
}

// str decodes a length-prefixed string aliasing the frame buffer.
func (d *payloadReader) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(d.remaining()) {
		return "", errFrameCorrupt
	}
	b, _ := d.bytes(int(n))
	if len(b) == 0 {
		return "", nil
	}
	return unsafe.String(&b[0], len(b)), nil
}

// count reads a count field and rejects values that cannot possibly
// fit in the remaining payload (each counted element is ≥ 1 byte).
func (d *payloadReader) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.remaining()) {
		return 0, errFrameCorrupt
	}
	return int(n), nil
}

// sub reads a length-prefixed body as its own reader.
func (d *payloadReader) sub() (payloadReader, error) {
	n, err := d.uvarint()
	if err != nil {
		return payloadReader{}, err
	}
	if n > uint64(d.remaining()) {
		return payloadReader{}, errFrameCorrupt
	}
	b, _ := d.bytes(int(n))
	return payloadReader{p: b}, nil
}

// tag reads the next field's number and wire type. Field number 0 is
// never assigned, so a stray zero byte (trailing garbage, a
// desynchronized stream) fails loudly.
func (d *payloadReader) tag() (num, wt uint64, err error) {
	t, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	num, wt = t>>1, t&1
	if num == 0 {
		return 0, 0, errFrameCorrupt
	}
	return num, wt, nil
}

// skip discards the value of a field this build does not know.
func (d *payloadReader) skip(wt uint64) error {
	if wt == wtVarint {
		_, err := d.uvarint()
		return err
	}
	_, err := d.sub()
	return err
}

// want checks that a known field arrived with the wire type its kind
// implies; a mismatch means a peer retyped the field.
func want(wt, expect uint64) error {
	if wt != expect {
		return errFrameCorrupt
	}
	return nil
}

func (d *payloadReader) uintField(wt uint64) (uint64, error) {
	if err := want(wt, wtVarint); err != nil {
		return 0, err
	}
	return d.uvarint()
}

func (d *payloadReader) intField(wt uint64) (int, error) {
	if err := want(wt, wtVarint); err != nil {
		return 0, err
	}
	v, err := d.varint()
	return int(v), err
}

func (d *payloadReader) boolField(wt uint64) (bool, error) {
	v, err := d.uintField(wt)
	return v != 0, err
}

func (d *payloadReader) stringField(wt uint64) (string, error) {
	if err := want(wt, wtBytes); err != nil {
		return "", err
	}
	return d.str()
}

// body reads a length-delimited field's body.
func (d *payloadReader) body(wt uint64) (payloadReader, error) {
	if err := want(wt, wtBytes); err != nil {
		return payloadReader{}, err
	}
	return d.sub()
}

// done rejects a body with bytes left over: a desynchronized stream
// must fail loudly, not deliver a prefix.
func (d *payloadReader) done() error {
	if d.more() {
		return errFrameCorrupt
	}
	return nil
}

func (d *payloadReader) stringsField(wt uint64) ([]string, error) {
	s, err := d.body(wt)
	if err != nil {
		return nil, err
	}
	n, err := s.count()
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = s.str(); err != nil {
			return nil, err
		}
	}
	return out, s.done()
}

func (d *payloadReader) intsField(wt uint64) ([]int, error) {
	s, err := d.body(wt)
	if err != nil {
		return nil, err
	}
	n, err := s.count()
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		v, err := s.varint()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, s.done()
}

func (d *payloadReader) valuesField(wt uint64) ([]any, error) {
	s, err := d.body(wt)
	if err != nil {
		return nil, err
	}
	vs, err := s.values()
	if err != nil {
		return nil, err
	}
	return vs, s.done()
}

// values reads a count and that many tagged values.
func (d *payloadReader) values() ([]any, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out := make([]any, n)
	for i := range out {
		if out[i], err = d.value(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *payloadReader) spanField(wt uint64) (dtrace.SpanContext, error) {
	var sc dtrace.SpanContext
	s, err := d.body(wt)
	if err != nil {
		return sc, err
	}
	if s.remaining() != 16+8 {
		return sc, errFrameCorrupt
	}
	copy(sc.Trace[:], s.p[:16])
	copy(sc.Span[:], s.p[16:])
	return sc, nil
}

// tableVersField decodes the map with its keys copied out of the
// frame: table names end up as long-lived map keys in the balancer's
// version tracker.
func (d *payloadReader) tableVersField(wt uint64) (map[string]uint64, error) {
	s, err := d.body(wt)
	if err != nil {
		return nil, err
	}
	n, err := s.count()
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k, err := s.str()
		if err != nil {
			return nil, err
		}
		v, err := s.uvarint()
		if err != nil {
			return nil, err
		}
		m[string([]byte(k))] = v
	}
	return m, s.done()
}

func (d *payloadReader) writeSetField(wt uint64) (*writeset.WriteSet, error) {
	s, err := d.body(wt)
	if err != nil {
		return nil, err
	}
	flags, err := s.byte()
	if err != nil {
		return nil, err
	}
	if flags&^flagTrace != 0 {
		return nil, errFrameCorrupt
	}
	ws := &writeset.WriteSet{}
	if flags&flagTrace != 0 {
		b, err := s.bytes(16 + 8)
		if err != nil {
			return nil, err
		}
		ws.Trace = new(dtrace.SpanContext)
		copy(ws.Trace.Trace[:], b[:16])
		copy(ws.Trace.Span[:], b[16:])
	}
	items, err := s.count()
	if err != nil {
		return nil, err
	}
	if items > 0 {
		ws.Items = make([]writeset.Item, items)
	}
	for j := 0; j < items; j++ {
		if err := s.item(&ws.Items[j]); err != nil {
			return nil, err
		}
	}
	return ws, s.done()
}

func (d *payloadReader) item(it *writeset.Item) error {
	var err error
	if it.Table, err = d.str(); err != nil {
		return err
	}
	if it.Key, err = d.str(); err != nil {
		return err
	}
	op, err := d.byte()
	if err != nil {
		return err
	}
	switch writeset.Op(op) {
	case writeset.OpInsert, writeset.OpUpdate, writeset.OpDelete:
		it.Op = writeset.Op(op)
	default:
		return errFrameCorrupt
	}
	rowTag, err := d.uvarint()
	if err != nil {
		return err
	}
	if rowTag == 0 {
		return nil // nil row (deletes)
	}
	// rowTag is 1+len, so the value count is rowTag-1 (each ≥ 1 byte).
	if rowTag-1 > uint64(d.remaining()) {
		return errFrameCorrupt
	}
	it.Row = make([]any, rowTag-1)
	for k := range it.Row {
		if it.Row[k], err = d.value(); err != nil {
			return err
		}
	}
	return nil
}

func (d *payloadReader) value() (any, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagInt64:
		return d.varint()
	case tagFloat64:
		b, err := d.bytes(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
	case tagString:
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		return s, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	default:
		return nil, errFrameCorrupt
	}
}

func (d *payloadReader) resultField(wt uint64) (*sql.Result, error) {
	s, err := d.body(wt)
	if err != nil {
		return nil, err
	}
	r := &sql.Result{}
	for s.more() {
		num, wt, err := s.tag()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1:
			r.Columns, err = s.stringsField(wt)
		case 2:
			var rows payloadReader
			if rows, err = s.body(wt); err != nil {
				return nil, err
			}
			r.Rows, err = rows.rows()
		case 3:
			r.Affected, err = s.intField(wt)
		default:
			err = s.skip(wt)
		}
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// rows reads a row count and that many value lists, up to the end of
// the body.
func (d *payloadReader) rows() ([][]any, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out := make([][]any, n)
	for i := range out {
		if out[i], err = d.values(); err != nil {
			return nil, err
		}
	}
	return out, d.done()
}

func (d *payloadReader) commitField(wt uint64) (replica.CommitResult, error) {
	var c replica.CommitResult
	s, err := d.body(wt)
	if err != nil {
		return c, err
	}
	for s.more() {
		num, wt, err := s.tag()
		if err != nil {
			return c, err
		}
		switch num {
		case 1:
			c.Version, err = s.uintField(wt)
		case 2:
			c.ReadOnly, err = s.boolField(wt)
		case 3:
			c.WrittenTables, err = s.stringsField(wt)
		case 4:
			c.TableVersions, err = s.tableVersField(wt)
		default:
			err = s.skip(wt)
		}
		if err != nil {
			return c, err
		}
	}
	return c, nil
}

func (d *payloadReader) decisionField(wt uint64) (certifier.Decision, error) {
	var dec certifier.Decision
	s, err := d.body(wt)
	if err != nil {
		return dec, err
	}
	for s.more() {
		num, wt, err := s.tag()
		if err != nil {
			return dec, err
		}
		switch num {
		case 1:
			dec.Commit, err = s.boolField(wt)
		case 2:
			dec.Version, err = s.uintField(wt)
		default:
			err = s.skip(wt)
		}
		if err != nil {
			return dec, err
		}
	}
	return dec, nil
}

func (d *payloadReader) refreshesField(wt uint64) ([]certifier.Refresh, error) {
	s, err := d.body(wt)
	if err != nil {
		return nil, err
	}
	n, err := s.count()
	if err != nil {
		return nil, err
	}
	out := make([]certifier.Refresh, n)
	for i := range out {
		rb, err := s.sub()
		if err != nil {
			return nil, err
		}
		if err := rb.refresh(&out[i]); err != nil {
			return nil, err
		}
	}
	return out, s.done()
}

func (d *payloadReader) refresh(r *certifier.Refresh) error {
	for d.more() {
		num, wt, err := d.tag()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			r.TxnID, err = d.uintField(wt)
		case 2:
			r.Version, err = d.uintField(wt)
		case 3:
			r.Origin, err = d.intField(wt)
		case 4:
			r.WS, err = d.writeSetField(wt)
		default:
			err = d.skip(wt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
