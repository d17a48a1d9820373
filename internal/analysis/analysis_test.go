package analysis_test

import (
	"path/filepath"
	"testing"

	"sconrep/internal/analysis"
	"sconrep/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

// TestTableSet covers the acceptance case directly: the fixture's
// "fix.under" transaction had a statement removed from its TxnNames
// declaration with the body unchanged, and the analyzer must error.
func TestTableSet(t *testing.T) {
	analysistest.Run(t, fixture("tableset"), analysis.TableSet)
}

// TestTableSetShard covers the shard-map checks: a declared table
// missing from ShardMap, a cross-shard transaction absent from
// CrossShardTxns, a single-shard transaction listed anyway, and a
// listed name with no TxnNames entry.
func TestTableSetShard(t *testing.T) {
	analysistest.Run(t, fixture("tablesetshard"), analysis.TableSet)
}

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, fixture("lockcheck"), analysis.LockCheck)
}

func TestDeterminism(t *testing.T) {
	saved := analysis.DeterminismSeeded
	analysis.DeterminismSeeded = append([]string{"determinism"}, saved...)
	defer func() { analysis.DeterminismSeeded = saved }()
	analysistest.Run(t, fixture("determinism"), analysis.Determinism)
}

// TestDetCoverage covers the seeded-list gap check: a package outside
// DeterminismSeeded importing math/rand warns unless the import
// carries the det:unseeded-ok tag.
func TestDetCoverage(t *testing.T) {
	analysistest.Run(t, fixture("detcoverage"), analysis.Determinism)
}

// TestWireCompat covers the acceptance mutants directly: the fixture
// lock was written for an older revision of the package, so the
// removed hello field, the type change, the unlocked additions, the
// reorder, and the gob-hostile field shapes must each be reported —
// and, for frame tables, the removed, renumbered and retyped fields,
// the unlocked field and table, the locked table that is gone, and
// the entries that cannot be proven.
func TestWireCompat(t *testing.T) {
	saved := analysis.WireSchemaLockFile
	analysis.WireSchemaLockFile = fixture("wirecompat") + "/schema.lock"
	defer func() { analysis.WireSchemaLockFile = saved }()
	analysistest.Run(t, fixture("wirecompat"), analysis.WireCompat)
}

// TestLockOrder covers the lock-graph checks, including the seeded
// descending-reserve mutant and the opposite-order cycle.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, fixture("lockorder"), analysis.LockOrder)
}

// TestSchemaLockRoundTrip pins the lockfile codec: parsing a
// formatted schema reproduces it byte-for-byte.
func TestSchemaLockRoundTrip(t *testing.T) {
	s := analysis.NewSchema()
	s.Structs["p.b"] = &analysis.SchemaStruct{Name: "p.b", Fields: []analysis.SchemaField{{Name: "X", Type: "map[string]uint64"}}}
	s.Structs["p.a"] = &analysis.SchemaStruct{Name: "p.a", Fields: []analysis.SchemaField{
		{Name: "Seq", Type: "uint64"},
		{Name: "WS", Type: "*p.ws"},
	}}
	s.Frames["p.hello"] = &analysis.SchemaFrame{Name: "p.hello", Fields: []analysis.FrameField{
		{Num: 1, Name: "Kind", Kind: "string"},
		{Num: 3, Name: "Shards", Kind: "ints"},
	}}
	data := s.Format()
	parsed, err := analysis.ParseSchemaLock(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := string(parsed.Format()); got != string(data) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", got, data)
	}
}

// TestSuiteSilentOnCleanPackage runs all five analyzers over a
// package with no TxnNames registry, no guard annotations, no
// seeded-path registration, no gob call sites and no frame tables:
// the suite must stay quiet rather than speculate.
func TestSuiteSilentOnCleanPackage(t *testing.T) {
	analysistest.Run(t, fixture("clean"), analysis.Analyzers()...)
}
