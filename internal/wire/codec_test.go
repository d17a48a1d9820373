package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sconrep/internal/certifier"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/writeset"
)

// codecBatch exercises every shape the refresh codec must carry: all
// five row value types, nil rows (deletes), empty strings, an empty
// writeset, a skip marker (nil writeset), a recovery-replay origin
// (-1), and a traced writeset.
func codecBatch() []certifier.Refresh {
	sc := &dtrace.SpanContext{}
	sc.Trace[0], sc.Trace[15] = 0xab, 0xcd
	sc.Span[3] = 0xef
	return []certifier.Refresh{
		{TxnID: 1, Version: 10, Origin: 0, WS: &writeset.WriteSet{Items: []writeset.Item{
			{Table: "kv", Key: "k1", Op: writeset.OpUpdate, Row: []any{int64(-7), "hello", float64(3.25), true, false, nil}},
			{Table: "kv", Key: "", Op: writeset.OpInsert, Row: []any{""}},
		}}},
		{TxnID: 2, Version: 11, Origin: -1, WS: &writeset.WriteSet{Items: []writeset.Item{
			{Table: "orders", Key: "o9", Op: writeset.OpDelete}, // nil row
		}}},
		{TxnID: 3, Version: 12, Origin: 2, WS: &writeset.WriteSet{}},
		{TxnID: 4, Version: 13, Origin: 1, WS: &writeset.WriteSet{
			Trace: sc,
			Items: []writeset.Item{{Table: "t", Key: "x", Op: writeset.OpUpdate, Row: []any{}}},
		}},
		{TxnID: 5, Version: 14, Origin: 3}, // skip marker
	}
}

func refreshPayload(t testing.TB, batch []certifier.Refresh) []byte {
	t.Helper()
	p, err := (&refreshBatch{Refreshes: batch}).appendPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRefreshCodecRoundTrip(t *testing.T) {
	batch := codecBatch()
	var buf bytes.Buffer
	if err := writeFrame(&buf, nil, &refreshBatch{Refreshes: batch}); err != nil {
		t.Fatal(err)
	}
	var got refreshBatch
	if err := recvFrame(&buf, &got); err != nil {
		t.Fatal(err)
	}
	// Compare bytes, not values: the re-encoding of what was decoded
	// must be the original payload exactly.
	if again := refreshPayload(t, got.Refreshes); !bytes.Equal(again, refreshPayload(t, batch)) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got.Refreshes, batch)
	}
	if len(got.Refreshes) != len(batch) {
		t.Fatalf("%d refreshes decoded, want %d", len(got.Refreshes), len(batch))
	}
	if got.Refreshes[4].WS != nil || got.Refreshes[2].WS == nil {
		t.Fatal("skip marker and empty writeset must stay distinct")
	}
	if got.Refreshes[0].WS.Items[1].Row == nil || got.Refreshes[1].WS.Items[0].Row != nil {
		t.Fatal("nil and empty rows must stay distinct")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after one frame", buf.Len())
	}
}

func TestRefreshCodecTruncatedRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, nil, &refreshBatch{Refreshes: codecBatch()}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for n := 0; n < len(frame); n++ {
		var got refreshBatch
		if err := recvFrame(bytes.NewReader(frame[:n]), &got); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", n, len(frame))
		}
	}
}

func TestRefreshCodecCorruptRejected(t *testing.T) {
	// A length prefix beyond the frame limit is refused before any
	// allocation.
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], maxFrame+1)
	if _, err := readFrame(bytes.NewReader(huge[:])); err == nil {
		t.Fatal("oversize length prefix accepted")
	}

	// Payload-level corruption: field number 0, a known field with the
	// wrong wire type, unknown writeset flags, a bad op, counts beyond
	// the payload, trailing garbage.
	bad := [][]byte{
		{0x00},                         // field number 0
		{0x02, 0x05},                   // Refreshes as a varint
		{0x03, 0x04, 0xff, 0xff, 0xff}, // length > remaining
		{0x03, 0x02, 0x7f, 0x00},       // count > remaining
		{0x03, 0x05, 0x01, 0x03, 0x09, 0x01, 0x04}, // writeset flags 0x04
	}
	valid := refreshPayload(t, codecBatch())
	bad = append(bad, append(append([]byte{}, valid...), 0x00)) // trailing garbage
	tamperOp := append([]byte{}, valid...)
	tamperOp[bytes.Index(tamperOp, []byte("k1"))+2] = 0x7f
	bad = append(bad, tamperOp)
	for i, p := range bad {
		var got refreshBatch
		if err := got.parsePayload(p); err == nil {
			t.Fatalf("corrupt payload %d decoded cleanly: %+v", i, got)
		}
	}
}

// certifyN pushes n single-item committed updates through cert.
func certifyN(t testing.TB, cert *certifier.Certifier, n int) {
	t.Helper()
	ws := &writeset.WriteSet{Items: []writeset.Item{
		{Table: "t", Key: "hot", Op: writeset.OpUpdate, Row: []any{"x"}},
	}}
	for i := 0; i < n; i++ {
		d, err := cert.Certify(0, uint64(i+1), uint64(i), ws)
		if err != nil || !d.Commit {
			t.Fatalf("certify %d: commit=%v err=%v", i+1, d.Commit, err)
		}
	}
}

// wireFrame is a frame type both halves of the codec handle.
type wireFrame interface {
	outFrame
	inFrame
}

// fuzzFrame is the parse→append→parse fixed-point oracle shared by the
// frame fuzzers: the parser must never panic, and anything it accepts
// must re-encode, re-parse, and re-encode to the same bytes. The
// comparison is byte-level on purpose: float rows can legally hold
// NaN, which the codec round-trips bit-exactly but == (and so
// DeepEqual) reports as unequal.
func fuzzFrame(t *testing.T, data []byte, fresh func() wireFrame) {
	m := fresh()
	if err := m.parsePayload(data); err != nil {
		return
	}
	enc, err := m.appendPayload(nil)
	if err != nil {
		t.Fatalf("accepted payload failed to re-encode: %v", err)
	}
	again := fresh()
	if err := again.parsePayload(enc); err != nil {
		t.Fatalf("re-encoded payload failed to parse: %v", err)
	}
	enc2, err := again.appendPayload(nil)
	if err != nil {
		t.Fatalf("re-parsed payload failed to encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip diverged:\n got %x (%+v)\nwant %x (%+v)", enc2, again, enc, m)
	}
}

// addFrameSeeds seeds a fuzzer with the payloads of the given frames.
func addFrameSeeds(f *testing.F, frames []wireFrame) {
	for _, fr := range frames {
		p, err := fr.appendPayload(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
}

func addPayloadSeeds(f *testing.F, payloads [][]byte) {
	for _, p := range payloads {
		f.Add(p)
	}
}

// FuzzRefreshCodec feeds arbitrary bytes to the refresh-batch parser.
func FuzzRefreshCodec(f *testing.F) {
	seed := refreshPayload(f, codecBatch())
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x06, 0x01, 0x04, 0x09, 0x02, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrame(t, data, func() wireFrame { return &refreshBatch{} })
	})
}

// FuzzClientFrame covers the client link: the gateway parses hellos
// and requests straight off application connections.
func FuzzClientFrame(f *testing.F) {
	addFrameSeeds(f, clientLinkFrames())
	addPayloadSeeds(f, captureFrames(f).client)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrame(t, data, func() wireFrame { return &clientHello{} })
		fuzzFrame(t, data, func() wireFrame { return &clientRequest{} })
		fuzzFrame(t, data, func() wireFrame { return &clientResponse{} })
	})
}

// FuzzReplicaFrame covers the gateway⇄replica link.
func FuzzReplicaFrame(f *testing.F) {
	addFrameSeeds(f, replicaLinkFrames())
	addPayloadSeeds(f, captureFrames(f).replica)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrame(t, data, func() wireFrame { return &replicaRequest{} })
		fuzzFrame(t, data, func() wireFrame { return &replicaResponse{} })
	})
}

// FuzzCertFrame covers the replica⇄certifier request link and its
// hello.
func FuzzCertFrame(f *testing.F) {
	addFrameSeeds(f, certLinkFrames())
	addPayloadSeeds(f, captureFrames(f).cert)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrame(t, data, func() wireFrame { return &certHello{} })
		fuzzFrame(t, data, func() wireFrame { return &certRequest{} })
		fuzzFrame(t, data, func() wireFrame { return &certResponse{} })
	})
}
