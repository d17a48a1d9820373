package wire

// Skew tests for the committed wire schema lock. For every frame table
// in schema.lock — the top-level frames and the nested messages they
// carry — they prove, against the hand-written append/parse pair, the
// two rolling-upgrade properties the wirecompat analyzer asserts
// statically:
//
//   - missing field: a frame written by a peer whose table lacks one
//     field decodes with that field zero and every other field intact.
//     Fields are independent tag/value pairs, so such a peer writes
//     exactly the full encoding minus that field's pair;
//   - unknown field: a frame carrying field numbers this build does
//     not know, of either wire type, decodes as if they were absent.
//
// They also pin the lock to the code: every locked table must exist
// here with exactly the locked fields, its field names must be exactly
// the Go type's exported fields (so no field can be added to a frame
// struct without reaching the wire), and the append half must write
// exactly the table's field numbers and wire types. The gob structs in
// the lock (the WAL record and what it reaches) get the same names
// check here; their gob round trips live with the WAL.

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"sort"
	"testing"

	"sconrep/internal/analysis"
	"sconrep/internal/certifier"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/wal"
	"sconrep/internal/writeset"
)

// pathStep locates a nested message: the field number it travels in,
// and whether that field holds a list of messages (count, then
// length-prefixed bodies) rather than one message body.
type pathStep struct {
	num  uint64
	list bool
}

// skewCase is one locked table with a fully populated frame carrying
// it.
type skewCase struct {
	table  *frameTable
	typ    reflect.Type
	sample func() wireFrame
	fresh  func() wireFrame
	// path leads from the frame payload to the table's message (empty
	// for top-level frames); value returns that message in a decoded
	// frame.
	path  []pathStep
	value func(wireFrame) reflect.Value
}

func top(f wireFrame) reflect.Value { return reflect.ValueOf(f).Elem() }

func frameSample(frames []wireFrame, i int) func() wireFrame {
	return func() wireFrame { return frames[i] }
}

// lockedFrames maps every schema.lock frame name to its skew case.
func lockedFrames() map[string]skewCase {
	cl, rl, ce := clientLinkFrames(), replicaLinkFrames(), certLinkFrames()
	return map[string]skewCase{
		"sconrep/internal/wire.clientHello": {table: &clientHelloTable, typ: reflect.TypeOf(clientHello{}),
			sample: frameSample(cl, 0), fresh: func() wireFrame { return &clientHello{} }, value: top},
		"sconrep/internal/wire.clientRequest": {table: &clientRequestTable, typ: reflect.TypeOf(clientRequest{}),
			sample: frameSample(cl, 1), fresh: func() wireFrame { return &clientRequest{} }, value: top},
		"sconrep/internal/wire.clientResponse": {table: &clientResponseTable, typ: reflect.TypeOf(clientResponse{}),
			sample: frameSample(cl, 2), fresh: func() wireFrame { return &clientResponse{} }, value: top},
		"sconrep/internal/wire.replicaRequest": {table: &replicaRequestTable, typ: reflect.TypeOf(replicaRequest{}),
			sample: frameSample(rl, 0), fresh: func() wireFrame { return &replicaRequest{} }, value: top},
		"sconrep/internal/wire.replicaResponse": {table: &replicaResponseTable, typ: reflect.TypeOf(replicaResponse{}),
			sample: frameSample(rl, 1), fresh: func() wireFrame { return &replicaResponse{} }, value: top},
		"sconrep/internal/wire.certHello": {table: &certHelloTable, typ: reflect.TypeOf(certHello{}),
			sample: frameSample(ce, 0), fresh: func() wireFrame { return &certHello{} }, value: top},
		"sconrep/internal/wire.certRequest": {table: &certRequestTable, typ: reflect.TypeOf(certRequest{}),
			sample: frameSample(ce, 1), fresh: func() wireFrame { return &certRequest{} }, value: top},
		"sconrep/internal/wire.certResponse": {table: &certResponseTable, typ: reflect.TypeOf(certResponse{}),
			sample: frameSample(ce, 2), fresh: func() wireFrame { return &certResponse{} }, value: top},
		"sconrep/internal/wire.refreshBatch": {table: &refreshBatchTable, typ: reflect.TypeOf(refreshBatch{}),
			sample: frameSample(ce, 3), fresh: func() wireFrame { return &refreshBatch{} }, value: top},
		"sconrep/internal/wire.result": {table: &resultTable, typ: reflect.TypeOf(sql.Result{}),
			sample: frameSample(cl, 2), fresh: func() wireFrame { return &clientResponse{} },
			path: []pathStep{{num: 4}},
			value: func(f wireFrame) reflect.Value {
				return reflect.ValueOf(f.(*clientResponse).Result).Elem()
			}},
		"sconrep/internal/wire.commitResult": {table: &commitTable, typ: reflect.TypeOf(replica.CommitResult{}),
			sample: frameSample(rl, 1), fresh: func() wireFrame { return &replicaResponse{} },
			path:  []pathStep{{num: 7}},
			value: func(f wireFrame) reflect.Value { return reflect.ValueOf(&f.(*replicaResponse).Commit).Elem() }},
		"sconrep/internal/wire.decision": {table: &decisionTable, typ: reflect.TypeOf(certifier.Decision{}),
			sample: frameSample(ce, 2), fresh: func() wireFrame { return &certResponse{} },
			path:  []pathStep{{num: 3}},
			value: func(f wireFrame) reflect.Value { return reflect.ValueOf(&f.(*certResponse).Decision).Elem() }},
		"sconrep/internal/wire.refresh": {table: &refreshTable, typ: reflect.TypeOf(certifier.Refresh{}),
			sample: frameSample(ce, 3), fresh: func() wireFrame { return &refreshBatch{} },
			path: []pathStep{{num: 1, list: true}},
			value: func(f wireFrame) reflect.Value {
				return reflect.ValueOf(&f.(*refreshBatch).Refreshes[0]).Elem()
			}},
	}
}

// lockedStructs maps the lock's gob structs to their Go types.
var lockedStructs = map[string]reflect.Type{
	"sconrep/internal/wal.Record":             reflect.TypeOf(wal.Record{}),
	"sconrep/internal/writeset.WriteSet":      reflect.TypeOf(writeset.WriteSet{}),
	"sconrep/internal/writeset.Item":          reflect.TypeOf(writeset.Item{}),
	"sconrep/internal/obs/dtrace.SpanContext": reflect.TypeOf(dtrace.SpanContext{}),
}

func loadSchemaLock(t *testing.T) *analysis.Schema {
	t.Helper()
	data, err := os.ReadFile("schema.lock")
	if err != nil {
		t.Fatalf("reading schema.lock: %v", err)
	}
	s, err := analysis.ParseSchemaLock(data)
	if err != nil {
		t.Fatalf("parsing schema.lock: %v", err)
	}
	return s
}

func exportedFields(typ reflect.Type) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			out = append(out, f.Name)
		}
	}
	return out
}

// TestSchemaLockMatchesTypes pins the lock to the live tables and
// types.
func TestSchemaLockMatchesTypes(t *testing.T) {
	lock := loadSchemaLock(t)
	frames := lockedFrames()
	for name := range lock.Frames {
		if _, ok := frames[name]; !ok {
			t.Errorf("schema.lock frame %s has no skew case: add it to lockedFrames", name)
		}
	}
	for name, sc := range frames {
		lf, ok := lock.Frames[name]
		if !ok {
			t.Errorf("frame table %s is not in schema.lock: run `sconrep-vet -update-schema`", name)
			continue
		}
		if len(lf.Fields) != len(sc.table.fields) {
			t.Errorf("%s: %d fields in the table, %d in schema.lock", name, len(sc.table.fields), len(lf.Fields))
			continue
		}
		for i, f := range sc.table.fields {
			l := lf.Fields[i]
			if l.Num != f.num || l.Name != f.name || l.Kind != string(f.kind) {
				t.Errorf("%s field %d: table has %d %s %s, schema.lock has %d %s %s",
					name, i, f.num, f.name, f.kind, l.Num, l.Name, l.Kind)
			}
		}
		var names []string
		for _, f := range sc.table.fields {
			names = append(names, f.name)
		}
		sort.Strings(names)
		exported := exportedFields(sc.typ)
		sort.Strings(exported)
		if !reflect.DeepEqual(names, exported) {
			t.Errorf("%s: table fields %v, but %s has exported fields %v: every exported field must be on the wire",
				name, names, sc.typ, exported)
		}
	}
	for name := range lock.Structs {
		if _, ok := lockedStructs[name]; !ok {
			t.Errorf("schema.lock struct %s has no entry in lockedStructs", name)
		}
	}
	for name, typ := range lockedStructs {
		st, ok := lock.Structs[name]
		if !ok {
			t.Errorf("lockedStructs entry %s is not in schema.lock: run `sconrep-vet -update-schema`", name)
			continue
		}
		exported := exportedFields(typ)
		if len(exported) != len(st.Fields) {
			t.Errorf("%s: %d exported fields in code, %d in schema.lock", name, len(exported), len(st.Fields))
			continue
		}
		for i, f := range st.Fields {
			if exported[i] != f.Name {
				t.Errorf("%s field %d: code has %s, schema.lock has %s", name, i, exported[i], f.Name)
			}
		}
	}
}

// TestSchemaLockRoundTrips runs the skew round trips for every locked
// frame table and every field, in both directions.
func TestSchemaLockRoundTrips(t *testing.T) {
	for _, sc := range lockedFrames() {
		sc := sc
		t.Run(sc.typ.Name(), func(t *testing.T) {
			full, err := sc.sample().appendPayload(nil)
			if err != nil {
				t.Fatal(err)
			}
			checkTableCoverage(t, sc, full)
			for _, f := range sc.table.fields {
				testMissingField(t, sc, full, f)
			}
			testUnknownFields(t, sc, full)
		})
	}
}

// checkTableCoverage: the sample sets every field, so the append half
// must write each table field once, with its kind's wire type, and
// nothing else.
func checkTableCoverage(t *testing.T, sc skewCase, full []byte) {
	t.Helper()
	editAt(t, full, sc.path, func(fs []rawField) []rawField {
		got := map[uint64]uint64{}
		for _, f := range fs {
			if _, dup := got[f.num]; dup {
				t.Errorf("%s: field %d written twice", sc.table.name, f.num)
			}
			got[f.num] = f.wt
		}
		for _, f := range sc.table.fields {
			wt, ok := got[f.num]
			switch {
			case !ok:
				t.Errorf("%s: field %d (%s) not written for a nonzero value", sc.table.name, f.num, f.name)
			case wt != kindWireType(f.kind):
				t.Errorf("%s: field %d (%s) written as wire type %d, kind %s wants %d",
					sc.table.name, f.num, f.name, wt, f.kind, kindWireType(f.kind))
			}
			delete(got, f.num)
		}
		for num := range got {
			t.Errorf("%s: field %d written but not in the table", sc.table.name, num)
		}
		return fs
	})
}

// kindWireType is the wire type values of kind k travel as.
func kindWireType(k fieldKind) uint64 {
	switch k {
	case kindUint, kindInt, kindBool:
		return wtVarint
	}
	return wtBytes
}

// testMissingField decodes the frame a peer without field f would
// write.
func testMissingField(t *testing.T, sc skewCase, full []byte, f fieldSpec) {
	t.Helper()
	legacy := editAt(t, full, sc.path, func(fs []rawField) []rawField {
		var out []rawField
		for _, r := range fs {
			if r.num != f.num {
				out = append(out, r)
			}
		}
		return out
	})
	got := sc.fresh()
	if err := got.parsePayload(legacy); err != nil {
		t.Fatalf("%s without %s: %v", sc.table.name, f.name, err)
	}
	if v := sc.value(got).FieldByName(f.name); !v.IsZero() {
		t.Errorf("%s: field %s absent from the frame must decode to its zero value, got %v", sc.table.name, f.name, v.Interface())
	}
	// Every other field survived bit-exactly: re-encoding reproduces
	// the legacy peer's bytes.
	again, err := got.appendPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, legacy) {
		t.Errorf("%s without %s: decode lost or changed other fields:\n got %x\nwant %x", sc.table.name, f.name, again, legacy)
	}
}

// testUnknownFields decodes frames carrying unknown field numbers of
// both wire types, at the front, the middle and the back of the
// message.
func testUnknownFields(t *testing.T, sc skewCase, full []byte) {
	t.Helper()
	unknown := []rawField{
		{num: 1000, wt: wtVarint, val: binary.AppendUvarint(nil, 1<<40)},
		{num: 1001, wt: wtBytes, val: []byte("future field")},
		{num: 1002, wt: wtBytes, val: nil},
	}
	for _, at := range []int{0, 1, -1} {
		newer := editAt(t, full, sc.path, func(fs []rawField) []rawField {
			i := at
			if i < 0 || i > len(fs) {
				i = len(fs)
			}
			out := append([]rawField{}, fs[:i]...)
			out = append(out, unknown...)
			return append(out, fs[i:]...)
		})
		got := sc.fresh()
		if err := got.parsePayload(newer); err != nil {
			t.Fatalf("%s with unknown fields at %d: %v", sc.table.name, at, err)
		}
		again, err := got.appendPayload(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, full) {
			t.Errorf("%s with unknown fields at %d decoded differently:\n got %x\nwant %x", sc.table.name, at, again, full)
		}
	}
}

// rawField is one encoded field: for wtVarint, val holds the uvarint
// bytes; for wtBytes, the body.
type rawField struct {
	num, wt uint64
	val     []byte
}

func splitRaw(t *testing.T, p []byte) []rawField {
	t.Helper()
	d := payloadReader{p: p}
	var out []rawField
	for d.more() {
		num, wt, err := d.tag()
		if err != nil {
			t.Fatalf("splitting %x: %v", p, err)
		}
		start := d.off
		if wt == wtVarint {
			if _, err := d.uvarint(); err != nil {
				t.Fatal(err)
			}
			out = append(out, rawField{num: num, wt: wt, val: p[start:d.off]})
			continue
		}
		body, err := d.sub()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rawField{num: num, wt: wt, val: body.p})
	}
	return out
}

func joinRaw(fs []rawField) []byte {
	var b []byte
	for _, f := range fs {
		b = appendTag(b, f.num, f.wt)
		if f.wt == wtBytes {
			b = binary.AppendUvarint(b, uint64(len(f.val)))
		}
		b = append(b, f.val...)
	}
	return b
}

// editAt applies fn to the fields of the message at path inside
// payload p (to every element, for list steps) and returns the
// re-encoded payload.
func editAt(t *testing.T, p []byte, path []pathStep, fn func([]rawField) []rawField) []byte {
	t.Helper()
	fs := splitRaw(t, p)
	if len(path) == 0 {
		return joinRaw(fn(fs))
	}
	found := false
	for i := range fs {
		if fs[i].num != path[0].num {
			continue
		}
		found = true
		if !path[0].list {
			fs[i].val = editAt(t, fs[i].val, path[1:], fn)
			continue
		}
		d := payloadReader{p: fs[i].val}
		n, err := d.count()
		if err != nil {
			t.Fatal(err)
		}
		list := binary.AppendUvarint(nil, uint64(n))
		for j := 0; j < n; j++ {
			el, err := d.sub()
			if err != nil {
				t.Fatal(err)
			}
			body := editAt(t, el.p, path[1:], fn)
			list = append(binary.AppendUvarint(list, uint64(len(body))), body...)
		}
		fs[i].val = list
	}
	if !found {
		t.Fatalf("path field %d not in %x", path[0].num, p)
	}
	return joinRaw(fs)
}
