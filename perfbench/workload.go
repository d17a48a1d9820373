package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/pstore"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/workload/micro"
	"sconrep/internal/workload/tpcw"
)

// Every workload runs 4 replicas, the zero latency model and the
// single-sequencer certifier, driven by 2 closed-loop sessions with no
// think time (the host has 2 CPUs).
const (
	numReplicas = 4
	numSessions = 2
)

// workload is one traffic mix; NOTES.md records why each exists.
type workload struct {
	name      string
	mode      core.Mode
	networked bool
	// newTraffic builds the traffic generator for one cluster.
	newTraffic func() traffic
}

var workloads = map[string]workload{
	"micro-read-tcp": {
		name: "micro-read-tcp", mode: core.Fine, networked: true,
		newTraffic: func() traffic { return newMicroTraffic(10) },
	},
	"micro-write-esc": {
		name: "micro-write-esc", mode: core.Eager,
		newTraffic: func() traffic { return newMicroTraffic(75) },
	},
	"tpcw-shopping-tcp": {
		name: "tpcw-shopping-tcp", mode: core.Fine, networked: true,
		newTraffic: func() traffic { return newTPCWTraffic(tpcw.ShoppingMix()) },
	},
}

// opOutcome is what one client operation reports back to the loop.
type opOutcome struct {
	update bool
	// kind indexes the traffic's operation names (TPC-W interaction).
	kind int
	// early and conflicts count the attempts that lost certification
	// and were retried before err (nil or not) ended the operation.
	early, conflicts int
	err              error
}

// traffic generates one workload's traffic against a cluster and checks
// what the cluster returned.
type traffic interface {
	// load populates one replica's engine; it must be deterministic.
	load(e *storage.Engine) error
	// register declares the workload's transactions with the cluster.
	register(c *cluster.Cluster)
	// newClient returns session idx's operation generator.
	newClient(idx int, seed int64) client
	// probe runs one read-only transaction: the end of set-up.
	probe(s *cluster.Session) error
	// kinds names the values opOutcome.kind takes (TPC-W interactions;
	// nil for micro).
	kinds() []string
	// check verifies the quiesced cluster (every replica at the
	// certifier's version) against what the clients observed.
	check(c *cluster.Cluster) error
}

// client is one session's operation generator.
type client interface {
	// op runs one operation; sp is nil unless the op is traced.
	op(s *cluster.Session, sp *spanBuf) opOutcome
}

// sessionSeed derives a non-negative per-session seed so two sessions
// never draw the same stream.
func sessionSeed(seed int64, idx int) int64 {
	return int64(uint64(seed)*1_000_003+uint64(idx)*7_919+1) & math.MaxInt64
}

// ---- micro (§V-B) ----

// microTraffic runs the §V-B micro-benchmark: 4 tables × 10,000 rows,
// one primary-key read or one val+1 update per transaction.
type microTraffic struct {
	scale     micro.Scale
	updatePct int
	reads     [micro.NumTables]*sql.Prepared
	updates   [micro.NumTables]*sql.Prepared
	// committed counts the updates acknowledged per table; the sum
	// check holds the replicas to it.
	committed [micro.NumTables]atomic.Int64
	// badReads counts reads that did not return exactly one row.
	badReads atomic.Int64
}

func newMicroTraffic(updatePct int) *microTraffic {
	d := &microTraffic{scale: micro.DefaultScale(), updatePct: updatePct}
	for t := 0; t < micro.NumTables; t++ {
		// The statements the micro package registers for each table.
		d.reads[t] = mustPrepare(fmt.Sprintf(`SELECT val, txt FROM micro%d WHERE id = ?`, t))
		d.updates[t] = mustPrepare(fmt.Sprintf(`UPDATE micro%d SET val = val + 1 WHERE id = ?`, t))
	}
	return d
}

func mustPrepare(q string) *sql.Prepared {
	p, err := sql.Prepare(q)
	if err != nil {
		panic(err)
	}
	return p
}

func (d *microTraffic) load(e *storage.Engine) error { return micro.Load(e, d.scale) }
func (d *microTraffic) register(c *cluster.Cluster)  { micro.RegisterAll(c) }
func (d *microTraffic) kinds() []string              { return nil }

func (d *microTraffic) probe(s *cluster.Session) error {
	return d.txn(s, nil, 0, 0, false)
}

type microClient struct {
	d   *microTraffic
	idx int
	rng *rand.Rand
}

func (d *microTraffic) newClient(idx int, seed int64) client {
	return &microClient{d: d, idx: idx, rng: rand.New(rand.NewSource(sessionSeed(seed, idx)))}
}

func (m *microClient) op(s *cluster.Session, sp *spanBuf) opOutcome {
	update := m.rng.Intn(100) < m.d.updatePct
	table := m.rng.Intn(micro.NumTables)
	rows := m.d.scale.RowsPerTable
	var row int64
	if update {
		// Each session updates only the rows ≡ idx (mod numSessions):
		// the two sessions never write the same row, so no operation
		// fails a first-committer-wins test and every failure the run
		// reports is one the system caused.
		row = int64(numSessions*m.rng.Intn(rows/numSessions) + m.idx)
	} else {
		row = int64(m.rng.Intn(rows))
	}
	return opOutcome{update: update, err: m.d.txn(s, sp, table, row, update)}
}

// txn runs one micro transaction, recording begin/exec/commit spans
// under a per-transaction parent when sp is non-nil.
func (d *microTraffic) txn(s *cluster.Session, sp *spanBuf, table int, row int64, update bool) error {
	name, stmt := micro.ReadTxnName(table), d.reads[table]
	if update {
		name, stmt = micro.UpdateTxnName(table), d.updates[table]
	}
	id := sp.newTxn()
	t0 := time.Now()
	tx, err := s.Begin(name)
	t1 := time.Now()
	sp.add(id, spanBegin, t0, t1)
	if err != nil {
		sp.add(id, spanTxn, t0, t1)
		return err
	}
	res, err := tx.Exec(stmt, row)
	t2 := time.Now()
	sp.add(id, spanExec, t1, t2)
	if err != nil {
		tx.Abort()
		sp.add(id, spanTxn, t0, time.Now())
		return err
	}
	if !update && len(res.Rows) != 1 {
		d.badReads.Add(1)
	}
	_, err = tx.Commit()
	t3 := time.Now()
	if update {
		sp.add(id, spanCommitUpd, t2, t3)
	} else {
		sp.add(id, spanCommitRO, t2, t3)
	}
	sp.add(id, spanTxn, t0, t3)
	if err == nil && update {
		d.committed[table].Add(1)
	}
	return err
}

// check requires, on every replica, SUM(val) per table to equal the
// loaded sum plus the committed updates counted for that table, and
// every read to have returned exactly one row.
func (d *microTraffic) check(c *cluster.Cluster) error {
	var errs []error
	if n := d.badReads.Load(); n != 0 {
		errs = append(errs, fmt.Errorf("micro: %d reads did not return exactly one row", n))
	}
	rows := int64(d.scale.RowsPerTable)
	loaded := rows * (rows - 1) / 2 // micro.Load sets val = id
	for i := 0; i < c.NumReplicas(); i++ {
		e := c.Replica(i).Engine()
		for t := 0; t < micro.NumTables; t++ {
			tx := e.Begin()
			res, err := sql.Exec(tx, e, fmt.Sprintf(`SELECT SUM(val) FROM micro%d`, t))
			tx.Abort()
			if err != nil {
				return fmt.Errorf("micro: replica %d sum of micro%d: %w", i, t, err)
			}
			want := loaded + d.committed[t].Load()
			if got, ok := res.Rows[0][0].(int64); !ok || got != want {
				errs = append(errs, fmt.Errorf("micro: replica %d micro%d SUM(val) = %v, want %d (loaded %d + %d committed updates)",
					i, t, res.Rows[0][0], want, loaded, d.committed[t].Load()))
			}
		}
	}
	return errors.Join(errs...)
}

// ---- TPC-W shopping mix (§V-C) ----

// tpcwTraffic runs TPC-W interactions picked by weight from a mix.
type tpcwTraffic struct {
	scale tpcw.Scale
	mix   *tpcw.Mix
	total int
}

func newTPCWTraffic(mix *tpcw.Mix) *tpcwTraffic {
	d := &tpcwTraffic{scale: tpcw.DefaultScale(), mix: mix}
	for _, in := range mix.Interactions {
		d.total += in.Weight
	}
	return d
}

func (d *tpcwTraffic) load(e *storage.Engine) error { return tpcw.Load(e, d.scale) }
func (d *tpcwTraffic) register(c *cluster.Cluster)  { tpcw.RegisterAll(c) }

func (d *tpcwTraffic) kinds() []string {
	out := make([]string, len(d.mix.Interactions))
	for i, in := range d.mix.Interactions {
		out[i] = in.Name
	}
	return out
}

func (d *tpcwTraffic) probe(s *cluster.Session) error {
	return tpcw.ProductDetail(s, tpcw.NewCtx(d.scale, numSessions, 1))
}

type tpcwClient struct {
	d   *tpcwTraffic
	rng *rand.Rand
	ctx *tpcw.Ctx
}

func (d *tpcwTraffic) newClient(idx int, seed int64) client {
	ss := sessionSeed(seed, idx)
	return &tpcwClient{d: d, rng: rand.New(rand.NewSource(ss)), ctx: tpcw.NewCtx(d.scale, idx, ss^0x5DEECE66D)}
}

// maxAttempts bounds how often a TPC-W interaction that lost
// certification is run again before it counts as failed.
const maxAttempts = 10

// op runs one interaction. Two browsers may update the same item at
// once; under snapshot isolation one of them loses certification, and
// the browser runs the interaction again, as a TPC-W client does. Only
// an interaction still aborted after maxAttempts, or one that fails any
// other way, fails; its latency covers every attempt.
func (t *tpcwClient) op(s *cluster.Session, _ *spanBuf) opOutcome {
	n := t.rng.Intn(t.d.total)
	k := 0
	for ; k < len(t.d.mix.Interactions)-1; k++ {
		n -= t.d.mix.Interactions[k].Weight
		if n < 0 {
			break
		}
	}
	in := &t.d.mix.Interactions[k]
	out := opOutcome{update: in.Update, kind: k}
	for attempt := 1; ; attempt++ {
		out.err = in.Run(s, t.ctx)
		if errors.Is(out.err, tpcw.ErrEmptyCart) {
			// A purchase with nothing in the cart is a completed no-op
			// interaction, exactly as the emulated browser counts it.
			out.err = nil
		}
		kind := abortKind(out.err)
		if kind == "" || attempt == maxAttempts {
			return out
		}
		if kind == "early" {
			out.early++
		} else {
			out.conflicts++
		}
	}
}

// check requires every replica's canonical snapshot image to be
// byte-identical at the final version.
func (d *tpcwTraffic) check(c *cluster.Cluster) error {
	v := c.Certifier().Version()
	var ref []byte
	for i := 0; i < c.NumReplicas(); i++ {
		img, err := pstore.SnapshotAt(c.Replica(i).Engine(), v)
		if err != nil {
			return fmt.Errorf("tpcw: snapshot of replica %d at %d: %w", i, v, err)
		}
		if i == 0 {
			ref = img
			continue
		}
		if string(img) != string(ref) {
			return fmt.Errorf("tpcw: replica %d snapshot at version %d differs from replica 0 (%d vs %d bytes)", i, v, len(img), len(ref))
		}
	}
	return nil
}
