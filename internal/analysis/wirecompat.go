package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WireSchemaLockFile is the committed canonical wire schema, relative
// to the working directory (the module root — sconrep-vet runs there).
// The fixture tests point it at per-fixture lock files.
var WireSchemaLockFile = "internal/wire/schema.lock"

// WireCompat locks the module's wire schema. Two encodings are
// covered:
//
//   - frame tables: every package-level frameTable literal (the binary
//     wire codec's per-frame declaration of field number, name and
//     kind; see internal/wire/codec.go) is read statically — the
//     field numbers, names and kinds must be constants — and diffed
//     against the lock. Fields travel as tagged values, so a legacy
//     peer skips fields it does not know and zero-fills fields it
//     never received, but only while a field keeps its number and its
//     kind:
//   - a locked field that is gone from the table was removed or
//     renamed — legacy peers still send it, and data they expect back
//     silently vanishes: Error;
//   - a locked field whose number changed is read by legacy peers as
//     a different field: Error;
//   - a locked field whose kind changed decodes wrong or not at all
//     across versions: Error;
//   - a locked frame whose table is gone breaks every legacy peer
//     that sends it: Error;
//   - a new field or frame not yet in the lock is mechanically safe,
//     but its ZERO VALUE must be a correct "legacy peer" reading:
//     Warning until reviewed and locked;
//   - two fields sharing a number, or an entry that is not a constant,
//     cannot be proven: Error.
//   - gob structs: every struct reachable from a gob Encode/Decode call
//     site (today the WAL record and what it reaches) is part of the
//     on-disk contract. The analyzer derives the canonical schema
//     (struct, field order, field name, gob-visible type) from the
//     type-checked tree and diffs it the same way: a removed or
//     retyped field is an Error, a new field a Warning, and
//     chan/func fields, unexported fields and non-empty interface
//     fields are flagged regardless of the lock.
//
// Intentional evolution is a reviewed diff: `sconrep-vet
// -update-schema` regenerates the lockfile.
//
// Gob root discovery follows the data, not a hand-kept list: direct
// gob.Encoder.Encode / gob.Decoder.Decode arguments with concrete
// struct types seed the walk, and a package-local fixpoint marks
// "sink" parameters (an `any` parameter that flows into a gob call)
// so concrete values passed through wrappers are found too. Arguments
// whose static type never resolves to a concrete struct are skipped.
var WireCompat = &Analyzer{
	Name: "wirecompat",
	Doc:  "wire frame tables and gob-reachable structs must match the committed wire schema lock",
	Run:  runWireCompat,
}

// Schema is the locked wire schema: frame tables and gob structs, each
// keyed by qualified name ("sconrep/internal/wire.certHello",
// "sconrep/internal/wal.Record").
type Schema struct {
	Frames  map[string]*SchemaFrame
	Structs map[string]*SchemaStruct
}

// SchemaFrame is one frame table's locked fields, in table order.
type SchemaFrame struct {
	Name   string
	Fields []FrameField
}

// FrameField is one frame table entry.
type FrameField struct {
	Num  uint64
	Name string
	Kind string
}

// SchemaStruct is one gob struct's locked shape; Fields are in
// declaration order (gob matches by name, but order changes are still
// surfaced as reviewable diffs).
type SchemaStruct struct {
	Name   string
	Fields []SchemaField
}

// SchemaField is one exported field's locked name and gob-visible
// type string.
type SchemaField struct {
	Name string
	Type string
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{Frames: map[string]*SchemaFrame{}, Structs: map[string]*SchemaStruct{}}
}

func (s *Schema) empty() bool { return len(s.Frames) == 0 && len(s.Structs) == 0 }

// sortedNames returns the schema's struct names in canonical order.
func (s *Schema) sortedNames() []string {
	return sortedKeys(s.Structs)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge folds other into s, verifying that entries reachable from
// several packages (e.g. writeset.WriteSet from both wire and wal)
// derived identical schemas.
func (s *Schema) Merge(other *Schema) error {
	for name, st := range other.Structs {
		prev, ok := s.Structs[name]
		if !ok {
			s.Structs[name] = st
			continue
		}
		if !slices.Equal(prev.Fields, st.Fields) {
			return fmt.Errorf("wire schema for %s differs between packages", name)
		}
	}
	for name, fr := range other.Frames {
		prev, ok := s.Frames[name]
		if !ok {
			s.Frames[name] = fr
			continue
		}
		if !slices.Equal(prev.Fields, fr.Fields) {
			return fmt.Errorf("frame table %s declared twice with different fields", name)
		}
	}
	return nil
}

// Format renders the schema in the committed lockfile format.
func (s *Schema) Format() []byte {
	var b strings.Builder
	b.WriteString("# sconrep wire schema lock: every frame table of the binary wire codec\n")
	b.WriteString("# (field number, name, kind) and the gob-visible schema of every struct\n")
	b.WriteString("# reachable from the module's gob encode/decode call sites (the WAL).\n")
	b.WriteString("# Regenerate after intentional protocol evolution with:\n")
	b.WriteString("#   go run ./cmd/sconrep-vet -update-schema ./...\n")
	b.WriteString("# Reviewed by the wirecompat analyzer; see DESIGN.md \"Protocol-safety analysis\".\n")
	for _, name := range sortedKeys(s.Frames) {
		fmt.Fprintf(&b, "frame %s\n", name)
		for _, f := range s.Frames[name].Fields {
			fmt.Fprintf(&b, "  %d %s %s\n", f.Num, f.Name, f.Kind)
		}
	}
	for _, name := range s.sortedNames() {
		st := s.Structs[name]
		fmt.Fprintf(&b, "struct %s\n", name)
		for i, f := range st.Fields {
			fmt.Fprintf(&b, "  %d %s %s\n", i, f.Name, f.Type)
		}
	}
	return []byte(b.String())
}

// ParseSchemaLock parses a lockfile produced by Format.
func ParseSchemaLock(data []byte) (*Schema, error) {
	s := NewSchema()
	var st *SchemaStruct
	var fr *SchemaFrame
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, " \t\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if name, ok := strings.CutPrefix(line, "struct "); ok {
			st, fr = &SchemaStruct{Name: name}, nil
			s.Structs[name] = st
			continue
		}
		if name, ok := strings.CutPrefix(line, "frame "); ok {
			st, fr = nil, &SchemaFrame{Name: name}
			s.Frames[name] = fr
			continue
		}
		parts := strings.SplitN(trimmed, " ", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("schema lock line %d: want \"<number> <name> <type>\", got %q", ln+1, trimmed)
		}
		switch {
		case st != nil:
			st.Fields = append(st.Fields, SchemaField{Name: parts[1], Type: parts[2]})
		case fr != nil:
			num, err := strconv.ParseUint(parts[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("schema lock line %d: field number %q: %v", ln+1, parts[0], err)
			}
			fr.Fields = append(fr.Fields, FrameField{Num: num, Name: parts[1], Kind: parts[2]})
		default:
			return nil, fmt.Errorf("schema lock line %d: field entry before any frame or struct", ln+1)
		}
	}
	return s, nil
}

// CollectSchema derives the package's wire schema without diffing it —
// the `-update-schema` path. Field-shape diagnostics (chan/func,
// non-empty interface, unexported fields, non-constant table entries)
// are discarded here; the next plain run reports them.
func CollectSchema(pkg *Package, fset *token.FileSet) (*Schema, error) {
	w := newSchemaWalker(pkg.Files, pkg.Pkg, pkg.Info, func(Diagnostic) {})
	schema := w.collect()
	for _, ft := range collectFrameTables(pkg.Files, pkg.Pkg, pkg.Info, func(Diagnostic) {}) {
		schema.Frames[ft.name] = ft.frame
	}
	return schema, nil
}

func runWireCompat(pass *Pass) error {
	w := newSchemaWalker(pass.Files, pass.Pkg, pass.Info, pass.Report)
	schema := w.collect()
	tables := collectFrameTables(pass.Files, pass.Pkg, pass.Info, pass.Report)
	if schema.empty() && len(tables) == 0 {
		return nil // no gob call sites or frame tables in this package
	}
	anchor := w.firstRootPos
	if len(tables) > 0 {
		anchor = tables[0].pos
	}
	data, err := os.ReadFile(WireSchemaLockFile)
	if err != nil {
		pass.Reportf(anchor, Error,
			"wire schema lock %s not readable (%v): run `sconrep-vet -update-schema` to create it",
			WireSchemaLockFile, err)
		return nil
	}
	lock, err := ParseSchemaLock(data)
	if err != nil {
		pass.Reportf(anchor, Error, "wire schema lock %s: %v", WireSchemaLockFile, err)
		return nil
	}
	diffSchemas(pass, w, schema, lock)
	diffFrameTables(pass, tables, lock)
	return nil
}

// diffSchemas reports every divergence between the derived schema and
// the lock, for the structs reachable from this package.
func diffSchemas(pass *Pass, w *schemaWalker, schema, lock *Schema) {
	for _, name := range schema.sortedNames() {
		st := schema.Structs[name]
		anchor := w.anchorFor(name)
		locked, ok := lock.Structs[name]
		if !ok {
			pass.Reportf(anchor, Warning,
				"wire struct %s is reachable from a gob call site but not locked in %s: review its fields for legacy-peer zero-value safety, then run `sconrep-vet -update-schema`",
				name, WireSchemaLockFile)
			continue
		}
		code := map[string]SchemaField{}
		for _, f := range st.Fields {
			code[f.Name] = f
		}
		lockedSet := map[string]SchemaField{}
		for _, lf := range locked.Fields {
			lockedSet[lf.Name] = lf
			cf, present := code[lf.Name]
			if !present {
				pass.Reportf(anchor, Error,
					"wire field %s.%s (%s) was removed or renamed: legacy peers still send it and silently lose what they expect back; restore it or regenerate %s to accept the evolution",
					name, lf.Name, lf.Type, WireSchemaLockFile)
				continue
			}
			if cf.Type != lf.Type {
				pass.Reportf(w.fieldPos(name, lf.Name, anchor), Error,
					"wire field %s.%s changed gob-visible type %s -> %s: legacy peers mis-decode it; revert or regenerate %s to accept the evolution",
					name, lf.Name, lf.Type, cf.Type, WireSchemaLockFile)
			}
		}
		for _, cf := range st.Fields {
			if _, present := lockedSet[cf.Name]; !present {
				pass.Reportf(w.fieldPos(name, cf.Name, anchor), Warning,
					"new wire field %s.%s (%s) is not locked in %s: legacy encoders never send it, so its zero value must read as a correct legacy peer; verify that, then run `sconrep-vet -update-schema`",
					name, cf.Name, cf.Type, WireSchemaLockFile)
			}
		}
		if orderChanged(st.Fields, locked.Fields) {
			pass.Reportf(anchor, Warning,
				"wire struct %s field order differs from %s (gob matches by name, so this is wire-compatible, but the lock records declaration order): run `sconrep-vet -update-schema`",
				name, WireSchemaLockFile)
		}
	}
}

// orderChanged reports whether the fields common to both schemas
// appear in a different relative order.
func orderChanged(code, locked []SchemaField) bool {
	in := func(fs []SchemaField, name string) bool {
		for _, f := range fs {
			if f.Name == name {
				return true
			}
		}
		return false
	}
	var a, b []string
	for _, f := range code {
		if in(locked, f.Name) {
			a = append(a, f.Name)
		}
	}
	for _, f := range locked {
		if in(code, f.Name) {
			b = append(b, f.Name)
		}
	}
	if len(a) != len(b) {
		return false // covered by add/remove diagnostics
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// schemaWalker discovers gob roots and walks the reachable type
// closure into a Schema's gob structs.
type schemaWalker struct {
	files  []*ast.File
	pkg    *types.Package
	info   *types.Info
	report func(Diagnostic)

	// roots maps discovered root structs to the call site that roots
	// them (the diagnostic anchor for foreign types).
	roots        map[*types.Named]token.Pos
	firstRootPos token.Pos

	schema  *Schema
	anchors map[string]token.Pos // struct name -> pos (decl if local, else root site)
	fields  map[string]token.Pos // "struct.field" -> field decl pos (local structs)
	visited map[*types.Named]bool
	queue   []*types.Named
}

func newSchemaWalker(files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *schemaWalker {
	return &schemaWalker{
		files:   files,
		pkg:     pkg,
		info:    info,
		report:  report,
		roots:   map[*types.Named]token.Pos{},
		schema:  NewSchema(),
		anchors: map[string]token.Pos{},
		fields:  map[string]token.Pos{},
		visited: map[*types.Named]bool{},
	}
}

func (w *schemaWalker) collect() *Schema {
	w.findRoots()
	for n, pos := range w.roots {
		if w.firstRootPos == token.NoPos || pos < w.firstRootPos {
			w.firstRootPos = pos
		}
		w.enqueue(n, pos)
	}
	for len(w.queue) > 0 {
		n := w.queue[0]
		w.queue = w.queue[1:]
		w.walkStruct(n)
	}
	return w.schema
}

func (w *schemaWalker) anchorFor(name string) token.Pos { return w.anchors[name] }

func (w *schemaWalker) fieldPos(structName, field string, fallback token.Pos) token.Pos {
	if p, ok := w.fields[structName+"."+field]; ok {
		return p
	}
	return fallback
}

// findRoots locates every concrete struct type that reaches a gob
// Encode/Decode call: direct arguments, plus arguments to "sink"
// parameters computed by a package-local fixpoint over wrappers.
func (w *schemaWalker) findRoots() {
	// Map from function object to the set of parameter indices that
	// flow into a gob call (receivers excluded from the index space).
	sinks := map[*types.Func]map[int]bool{}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range w.files {
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := w.info.Defs[fn.Name].(*types.Func); ok {
					decls[obj] = fn
				}
			}
		}
	}
	paramIndex := func(fn *ast.FuncDecl, id *ast.Ident) int {
		obj := w.info.Uses[id]
		if obj == nil {
			return -1
		}
		i := 0
		for _, f := range fn.Type.Params.List {
			for _, n := range f.Names {
				if w.info.Defs[n] == obj {
					return i
				}
				i++
			}
		}
		return -1
	}
	// classify handles one argument that reaches a gob sink: concrete
	// struct types become roots; sink parameters propagate.
	classify := func(fn *ast.FuncDecl, obj *types.Func, arg ast.Expr) (changed bool) {
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = u.X
		}
		tv, ok := w.info.Types[arg]
		if !ok {
			return false
		}
		t := tv.Type
		for {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		if n, ok := t.(*types.Named); ok {
			if _, isStruct := n.Underlying().(*types.Struct); isStruct {
				if _, seen := w.roots[n]; !seen {
					w.roots[n] = arg.Pos()
					return true
				}
				return false
			}
		}
		if _, isIface := t.Underlying().(*types.Interface); isIface && fn != nil && obj != nil {
			if id, ok := arg.(*ast.Ident); ok {
				if idx := paramIndex(fn, id); idx >= 0 {
					if sinks[obj] == nil {
						sinks[obj] = map[int]bool{}
					}
					if !sinks[obj][idx] {
						sinks[obj][idx] = true
						return true
					}
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range decls {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if isGobSink(w.info, call) {
					if classify(fn, obj, call.Args[0]) {
						changed = true
					}
					return true
				}
				callee := calleeFunc(w.info, call)
				if callee == nil {
					return true
				}
				for idx := range sinks[callee] {
					if idx < len(call.Args) && classify(fn, obj, call.Args[idx]) {
						changed = true
					}
				}
				return true
			})
		}
	}
}

// isGobSink reports whether call is (*gob.Encoder).Encode or
// (*gob.Decoder).Decode.
func isGobSink(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Encode" && sel.Sel.Name != "Decode") {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "encoding/gob"
}

// calleeFunc resolves a call's static callee, if it is a declared
// function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// walkStruct records one struct's gob-visible fields and enqueues the
// named structs its fields reach.
func (w *schemaWalker) walkStruct(n *types.Named) {
	name := qualifiedName(n)
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	anchor := w.anchors[name]
	if n.Obj().Pkg() == w.pkg {
		anchor = n.Obj().Pos()
		w.anchors[name] = anchor
	}
	ss := &SchemaStruct{Name: name}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fpos := anchor
		if n.Obj().Pkg() == w.pkg {
			fpos = f.Pos()
			w.fields[name+"."+f.Name()] = fpos
		}
		if !f.Exported() {
			w.report(Diagnostic{Pos: fpos, Severity: Warning, Message: fmt.Sprintf(
				"wire struct %s has unexported field %s: gob silently drops it, so peers never see the value — export it or move it off the wire struct", name, f.Name())})
			continue
		}
		ts := w.typeString(f.Type(), fpos, name+"."+f.Name())
		ss.Fields = append(ss.Fields, SchemaField{Name: f.Name(), Type: ts})
	}
	w.schema.Structs[name] = ss
}

// enqueue schedules a named struct for walking (once).
func (w *schemaWalker) enqueue(n *types.Named, anchor token.Pos) {
	if w.visited[n] {
		return
	}
	w.visited[n] = true
	name := qualifiedName(n)
	if _, ok := w.anchors[name]; !ok {
		w.anchors[name] = anchor
	}
	w.queue = append(w.queue, n)
}

// typeString renders a field type the way gob sees it, flagging
// gob-hostile shapes and enqueueing reachable named structs.
func (w *schemaWalker) typeString(t types.Type, pos token.Pos, path string) string {
	switch t := t.(type) {
	case *types.Basic:
		switch t.Kind() {
		case types.Byte:
			return "uint8"
		case types.Rune:
			return "int32"
		}
		return t.Name()
	case *types.Pointer:
		return "*" + w.typeString(t.Elem(), pos, path)
	case *types.Slice:
		return "[]" + w.typeString(t.Elem(), pos, path)
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), w.typeString(t.Elem(), pos, path))
	case *types.Map:
		return "map[" + w.typeString(t.Key(), pos, path) + "]" + w.typeString(t.Elem(), pos, path)
	case *types.Chan:
		w.report(Diagnostic{Pos: pos, Severity: Error, Message: fmt.Sprintf(
			"wire field %s contains a chan: gob cannot encode channels and the whole envelope fails at runtime", path)})
		return "chan"
	case *types.Signature:
		w.report(Diagnostic{Pos: pos, Severity: Error, Message: fmt.Sprintf(
			"wire field %s contains a func: gob cannot encode functions and the whole envelope fails at runtime", path)})
		return "func"
	case *types.Interface:
		if t.Empty() {
			return "any" // row values; gob registers the basic scalar types itself
		}
		w.report(Diagnostic{Pos: pos, Severity: Warning, Message: fmt.Sprintf(
			"wire field %s is a non-empty interface: it travels only via gob.Register'd concrete types — prefer a concrete field", path)})
		return "interface"
	case *types.Named:
		name := qualifiedName(t)
		if hasCustomGobCodec(t) {
			return name + "(gob:custom)"
		}
		if _, isStruct := t.Underlying().(*types.Struct); isStruct {
			w.enqueue(t, pos)
			return name
		}
		return name + "(" + w.typeString(t.Underlying(), pos, path) + ")"
	case *types.Struct:
		// Anonymous struct: render inline.
		var parts []string
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if !f.Exported() {
				continue
			}
			parts = append(parts, f.Name()+" "+w.typeString(f.Type(), pos, path+"."+f.Name()))
		}
		return "struct{" + strings.Join(parts, "; ") + "}"
	}
	return t.String()
}

func qualifiedName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// hasCustomGobCodec reports whether the type encodes itself
// (GobEncoder or BinaryMarshaler) — its fields are then not part of
// the gob schema.
func hasCustomGobCodec(n *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "GobEncode", "GobDecode", "MarshalBinary", "UnmarshalBinary":
			return true
		}
	}
	return false
}
