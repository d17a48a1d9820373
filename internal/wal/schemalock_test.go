package wal

// Gob round trips for the structs the committed wire schema lock
// records on behalf of the WAL — the record and everything it reaches.
// The WAL is the one remaining gob user, so its on-disk records keep
// gob's evolution rules, and for every locked struct and every
// droppable field this proves them with live gob streams:
//
//   - forward skip: a populated current value decodes cleanly into a
//     shadow type with one field removed (an older reader simply
//     skips the field it does not know);
//   - backward zero-fill: a populated shadow value (an older writer)
//     decodes into the current type, leaving only the dropped field at
//     its zero value.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"testing"

	"sconrep/internal/analysis"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/writeset"
)

// gobLockedTypes maps every gob struct in the lock to its Go type.
var gobLockedTypes = map[string]reflect.Type{
	"sconrep/internal/wal.Record":             reflect.TypeOf(Record{}),
	"sconrep/internal/writeset.WriteSet":      reflect.TypeOf(writeset.WriteSet{}),
	"sconrep/internal/writeset.Item":          reflect.TypeOf(writeset.Item{}),
	"sconrep/internal/obs/dtrace.SpanContext": reflect.TypeOf(dtrace.SpanContext{}),
}

// TestSchemaLockRoundTrips runs the shadow-type round trips for every
// gob struct in the lock and every droppable field.
func TestSchemaLockRoundTrips(t *testing.T) {
	data, err := os.ReadFile("../wire/schema.lock")
	if err != nil {
		t.Fatalf("reading schema.lock: %v", err)
	}
	lock, err := analysis.ParseSchemaLock(data)
	if err != nil {
		t.Fatalf("parsing schema.lock: %v", err)
	}
	for name := range lock.Structs {
		if _, ok := gobLockedTypes[name]; !ok {
			t.Errorf("schema.lock gob struct %s has no entry in gobLockedTypes: add it here", name)
		}
	}
	for name, typ := range gobLockedTypes {
		st := lock.Structs[name]
		if st == nil {
			t.Errorf("%s is not in schema.lock: run `sconrep-vet -update-schema`", name)
			continue
		}
		if len(st.Fields) < 2 {
			// Dropping the only field would leave a struct gob refuses
			// to encode ("no exported fields"); a one-field struct has
			// no partial-decode surface anyway.
			continue
		}
		t.Run(typ.Name(), func(t *testing.T) {
			for _, f := range st.Fields {
				testDropField(t, typ, f.Name)
			}
		})
	}
}

// testDropField gob-round-trips typ against a shadow of typ with the
// named field removed, in both directions.
func testDropField(t *testing.T, typ reflect.Type, drop string) {
	t.Helper()
	shadow := shadowType(typ, drop)
	full := reflect.New(typ)
	populate(full.Elem(), 3)

	// Forward skip: current encoder -> older decoder.
	dec := gob.NewDecoder(encodeValue(t, full.Interface()))
	shadowPtr := reflect.New(shadow)
	if err := dec.DecodeValue(shadowPtr); err != nil {
		t.Fatalf("%s: decoding into shadow without %s: %v", typ.Name(), drop, err)
	}
	compareCommon(t, typ.Name()+" forward drop "+drop, full.Elem(), shadowPtr.Elem(), drop)

	// Backward zero-fill: older encoder -> current decoder.
	shadowVal := reflect.New(shadow)
	populate(shadowVal.Elem(), 5)
	dec = gob.NewDecoder(encodeValue(t, shadowVal.Interface()))
	back := reflect.New(typ)
	if err := dec.DecodeValue(back); err != nil {
		t.Fatalf("%s: decoding an older record without %s: %v", typ.Name(), drop, err)
	}
	compareCommon(t, typ.Name()+" backward drop "+drop, back.Elem(), shadowVal.Elem(), drop)
	if got := back.Elem().FieldByName(drop); !got.IsZero() {
		t.Errorf("%s: field %s absent from the older record must decode to its zero value, got %v",
			typ.Name(), drop, got.Interface())
	}
}

func encodeValue(t *testing.T, v any) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding %T: %v", v, err)
	}
	return &buf
}

// shadowType rebuilds typ without the named field, as a build from
// before the field existed would declare it.
func shadowType(typ reflect.Type, drop string) reflect.Type {
	var fields []reflect.StructField
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || f.Name == drop {
			continue
		}
		fields = append(fields, reflect.StructField{Name: f.Name, Type: f.Type})
	}
	return reflect.StructOf(fields)
}

// compareCommon asserts every exported field except drop carried its
// value across the stream (gob encodes zero-value fields as absent,
// which decodes back to zero — still equal).
func compareCommon(t *testing.T, label string, a, b reflect.Value, drop string) {
	t.Helper()
	for i := 0; i < a.Type().NumField(); i++ {
		f := a.Type().Field(i)
		if !f.IsExported() || f.Name == drop {
			continue
		}
		bv := b.FieldByName(f.Name)
		if !bv.IsValid() {
			continue
		}
		if !reflect.DeepEqual(a.Field(i).Interface(), bv.Interface()) {
			t.Errorf("%s: field %s diverged: %v vs %v", label, f.Name, a.Field(i).Interface(), bv.Interface())
		}
	}
}

// populate fills v with deterministic nonzero data, recursing through
// the schema's composite shapes. Interface fields get int64, a basic
// type gob registers itself.
func populate(v reflect.Value, seed int64) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(seed)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(seed))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		populate(s.Index(0), seed)
		populate(s.Index(1), seed+1)
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			populate(v.Index(i), seed+int64(i))
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k := reflect.New(v.Type().Key()).Elem()
		populate(k, seed)
		val := reflect.New(v.Type().Elem()).Elem()
		populate(val, seed+1)
		m.SetMapIndex(k, val)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		populate(p.Elem(), seed)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				populate(v.Field(i), seed+int64(i))
			}
		}
	case reflect.Interface:
		v.Set(reflect.ValueOf(int64(seed)))
	}
}
