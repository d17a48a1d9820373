package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// frameTableType is the name of the wire codec's per-frame field table
// type; every package-level composite literal of a struct type with
// this name, declared in the analyzed package, is a table to lock.
const frameTableType = "frameTable"

// frameTableDecl is one statically read frame table literal.
type frameTableDecl struct {
	name  string // qualified: package path + "." + the literal's name field
	pos   token.Pos
	frame *SchemaFrame
	// fieldPos positions each entry, by field name, for diagnostics.
	fieldPos map[string]token.Pos
}

// collectFrameTables reads every package-level frame table literal:
//
//	var certHelloTable = frameTable{name: "certHello", fields: []fieldSpec{
//		{1, "Kind", kindString},
//		...
//	}}
//
// The name, and every entry's number, name and kind, must be constant
// expressions — the table is a proof obligation, so an entry computed
// at run time is reported as an Error and left out.
func collectFrameTables(files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) []frameTableDecl {
	var out []frameTableDecl
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
						v = u.X
					}
					lit, ok := v.(*ast.CompositeLit)
					if !ok || !isFrameTable(info, pkg, lit) {
						continue
					}
					if ft, ok := readFrameTable(info, pkg, lit, report); ok {
						out = append(out, ft)
					}
				}
			}
		}
	}
	return out
}

func isFrameTable(info *types.Info, pkg *types.Package, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok {
		return false
	}
	n, ok := tv.Type.(*types.Named)
	return ok && n.Obj().Name() == frameTableType && n.Obj().Pkg() == pkg
}

func readFrameTable(info *types.Info, pkg *types.Package, lit *ast.CompositeLit, report func(Diagnostic)) (frameTableDecl, bool) {
	ft := frameTableDecl{pos: lit.Pos(), frame: &SchemaFrame{}, fieldPos: map[string]token.Pos{}}
	var fields *ast.CompositeLit
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			report(Diagnostic{Pos: elt.Pos(), Severity: Error, Message: "frame table literal must use keyed fields (name, fields)"})
			return ft, false
		}
		key, _ := kv.Key.(*ast.Ident)
		switch {
		case key == nil:
		case key.Name == "name":
			name, ok := constString(info, kv.Value)
			if !ok {
				report(Diagnostic{Pos: kv.Value.Pos(), Severity: Error, Message: "frame table name is not a constant string; the table cannot be locked"})
				return ft, false
			}
			ft.name = pkg.Path() + "." + name
		case key.Name == "fields":
			fields, _ = kv.Value.(*ast.CompositeLit)
		}
	}
	if ft.name == "" || fields == nil {
		report(Diagnostic{Pos: lit.Pos(), Severity: Error, Message: "frame table literal needs a constant name and a fields slice literal"})
		return ft, false
	}
	ft.frame.Name = ft.name
	seen := map[uint64]string{}
	for _, elt := range fields.Elts {
		entry, ok := elt.(*ast.CompositeLit)
		if !ok {
			report(Diagnostic{Pos: elt.Pos(), Severity: Error, Message: ft.name + ": field table entry is not a literal; it cannot be proven"})
			continue
		}
		f, ok := readFieldEntry(info, entry)
		if !ok {
			report(Diagnostic{Pos: entry.Pos(), Severity: Error, Message: ft.name + ": field table entry needs a constant number, name and kind; it cannot be proven"})
			continue
		}
		if prev, dup := seen[f.Num]; dup {
			report(Diagnostic{Pos: entry.Pos(), Severity: Error, Message: fmt.Sprintf(
				"%s: fields %s and %s share field number %d: a decoder cannot tell them apart", ft.name, prev, f.Name, f.Num)})
			continue
		}
		seen[f.Num] = f.Name
		ft.frame.Fields = append(ft.frame.Fields, f)
		ft.fieldPos[f.Name] = entry.Pos()
	}
	return ft, true
}

// readFieldEntry reads one {num, name, kind} entry, positional or
// keyed.
func readFieldEntry(info *types.Info, entry *ast.CompositeLit) (FrameField, bool) {
	var f FrameField
	if len(entry.Elts) != 3 {
		return f, false
	}
	vals := map[string]ast.Expr{}
	for i, e := range entry.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				vals[id.Name] = kv.Value
			}
			continue
		}
		vals[[]string{"num", "name", "kind"}[i]] = e
	}
	tv, ok := info.Types[vals["num"]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return f, false
	}
	num, exact := constant.Uint64Val(tv.Value)
	if !exact || num == 0 {
		return f, false
	}
	name, ok1 := constString(info, vals["name"])
	kind, ok2 := constString(info, vals["kind"])
	if !ok1 || !ok2 || name == "" || kind == "" || strings.ContainsAny(name+kind, " \t\n") {
		return f, false
	}
	return FrameField{Num: num, Name: name, Kind: kind}, true
}

func constString(info *types.Info, e ast.Expr) (string, bool) {
	if e == nil {
		return "", false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// diffFrameTables reports every divergence between the package's frame
// tables and the lock.
func diffFrameTables(pass *Pass, tables []frameTableDecl, lock *Schema) {
	if len(tables) == 0 {
		return
	}
	declared := map[string]bool{}
	for _, ft := range tables {
		declared[ft.name] = true
		locked, ok := lock.Frames[ft.name]
		if !ok {
			pass.Reportf(ft.pos, Warning,
				"frame table %s is not locked in %s: review its fields for legacy-peer zero-value safety, then run `sconrep-vet -update-schema`",
				ft.name, WireSchemaLockFile)
			continue
		}
		code := map[string]FrameField{}
		for _, f := range ft.frame.Fields {
			code[f.Name] = f
		}
		lockedNames := map[string]bool{}
		for _, lf := range locked.Fields {
			lockedNames[lf.Name] = true
			cf, present := code[lf.Name]
			switch {
			case !present:
				pass.Reportf(ft.pos, Error,
					"wire field %s.%s (%d %s) was removed or renamed: legacy peers still send it and silently lose what they expect back; restore it or regenerate %s to accept the evolution",
					ft.name, lf.Name, lf.Num, lf.Kind, WireSchemaLockFile)
			case cf.Num != lf.Num:
				pass.Reportf(ft.fieldPos[lf.Name], Error,
					"wire field %s.%s renumbered %d -> %d: legacy peers read it as a different field; revert or regenerate %s to accept the evolution",
					ft.name, lf.Name, lf.Num, cf.Num, WireSchemaLockFile)
			case cf.Kind != lf.Kind:
				pass.Reportf(ft.fieldPos[lf.Name], Error,
					"wire field %s.%s changed kind %s -> %s: legacy peers mis-decode it; revert or regenerate %s to accept the evolution",
					ft.name, lf.Name, lf.Kind, cf.Kind, WireSchemaLockFile)
			}
		}
		for _, cf := range ft.frame.Fields {
			if !lockedNames[cf.Name] {
				pass.Reportf(ft.fieldPos[cf.Name], Warning,
					"new wire field %s.%s (%d %s) is not locked in %s: legacy encoders never send it, so its zero value must read as a correct legacy peer; verify that, then run `sconrep-vet -update-schema`",
					ft.name, cf.Name, cf.Num, cf.Kind, WireSchemaLockFile)
			}
		}
	}
	prefix := pass.Pkg.Path() + "."
	for _, name := range sortedKeys(lock.Frames) {
		if strings.HasPrefix(name, prefix) && !declared[name] {
			pass.Reportf(tables[0].pos, Error,
				"locked frame %s has no frame table any more: legacy peers still send it; restore it or regenerate %s to accept the evolution",
				name, WireSchemaLockFile)
		}
	}
}
