// Fixture for the wirecompat analyzer. The companion schema.lock was
// "committed" for an older revision of these structs, so every class
// of evolution violation appears once: hello lost its Legacy field
// (the seeded removed-certHello-field mutant), req changed a field
// type, resp grew an unlocked field, novel is a new unlocked struct,
// swap reordered fields, and envelope carries the gob-hostile field
// shapes. hello and req reach gob only through the send wrapper,
// proving sink-parameter propagation.
package wirecompat

import (
	"encoding/gob"
	"io"
)

type hello struct { // want `wire field wirecompat\.hello\.Legacy \(uint64\) was removed or renamed`
	Kind   string
	Shards []int
}

type req struct {
	Seq int64 // want `changed gob-visible type uint64 -> int64`
}

type resp struct {
	Seq   uint64
	Extra string // want `new wire field wirecompat\.resp\.Extra`
}

type novel struct { // want `reachable from a gob call site but not locked`
	N int
}

type swap struct { // want `field order differs`
	A int
	B int
}

type envelope struct {
	Done   chan int  // want `contains a chan`
	Body   io.Reader // want `non-empty interface`
	secret int       // want `unexported field`
	Blob   []byte
}

// send is a gob wrapper: its v parameter is a sink, so concrete
// arguments at its call sites are wire roots.
func send(enc *gob.Encoder, v any) error {
	return enc.Encode(v)
}

func roundTrip(w io.Writer, r io.Reader) {
	enc := gob.NewEncoder(w)
	dec := gob.NewDecoder(r)
	_ = send(enc, &hello{})
	_ = send(enc, &req{})
	_ = send(enc, &novel{})
	_ = enc.Encode(&envelope{})
	_ = enc.Encode(swap{})
	var rs resp
	_ = dec.Decode(&rs)
}

var _ = roundTrip

// Frame tables: the binary codec's per-frame field declarations. The
// fixture lock was written for an older revision of these too: ping
// lost its Legacy field, renumbered Seq and retyped Body, and gained
// an unlocked Extra; pong is a new unlocked table; gone is locked but
// no longer declared; broken carries entries the analyzer cannot
// prove.

type fieldKind string

const (
	kindUint   fieldKind = "uint"
	kindString fieldKind = "string"
	kindBytes  fieldKind = "bytes"
)

type frameTable struct {
	name   string
	fields []fieldSpec
}

type fieldSpec struct {
	num  uint64
	name string
	kind fieldKind
}

var pingTable = frameTable{name: "ping", fields: []fieldSpec{ // want `wire field wirecompat\.ping\.Legacy \(3 uint\) was removed or renamed` `locked frame wirecompat\.gone has no frame table`
	{1, "Kind", kindString},
	{4, "Seq", kindUint},     // want `wire field wirecompat\.ping\.Seq renumbered 2 -> 4`
	{5, "Body", kindBytes},   // want `wire field wirecompat\.ping\.Body changed kind string -> bytes`
	{6, "Extra", kindString}, // want `new wire field wirecompat\.ping\.Extra \(6 string\) is not locked`
}}

var pongTable = &frameTable{name: "pong", fields: []fieldSpec{ // want `frame table wirecompat\.pong is not locked`
	{num: 1, name: "Seq", kind: kindUint},
}}

var dynamicNum uint64 = 2

var brokenTable = frameTable{name: "broken", fields: []fieldSpec{
	{1, "A", kindUint},
	{dynamicNum, "B", kindUint}, // want `field table entry needs a constant number, name and kind`
	{1, "C", kindUint},          // want `fields A and C share field number 1`
}}

var _, _, _ = pingTable, pongTable, brokenTable
