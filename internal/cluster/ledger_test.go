package cluster

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"

	"plurality/internal/rng"
	"plurality/internal/service"
)

// NewLedger returns an empty ledger that reads decided jobs back from
// the records it applied itself, as a node's ledger reads them from its
// replica's log.
func NewLedger() *Ledger {
	var mu sync.Mutex
	records := make(map[uint64]LedgerRecord)
	l := newLedger(func(index uint64) (LedgerRecord, error) {
		mu.Lock()
		defer mu.Unlock()
		rec, ok := records[index]
		if !ok {
			return LedgerRecord{}, fmt.Errorf("cluster: log entry %d has not applied", index)
		}
		return rec, nil
	})
	l.keep = func(index uint64, rec LedgerRecord) {
		mu.Lock()
		defer mu.Unlock()
		records[index] = rec
	}
	return l
}

// TestLedgerLifecycle walks one job through submit → done and checks
// each guarded transition; the last shard done decides the job.
func TestLedgerLifecycle(t *testing.T) {
	l := NewLedger()
	shards := []ShardRange{{Lo: 0, Hi: 5}, {Lo: 5, Hi: 10}}
	l.Apply(1, LedgerRecord{Op: OpSubmit, Key: "k", Request: json.RawMessage(`{}`), Shards: shards})

	// Duplicate submit is the cluster-wide dedup no-op.
	l.Apply(2, LedgerRecord{Op: OpSubmit, Key: "k", Shards: []ShardRange{{Lo: 0, Hi: 10}}})
	jv, ok := l.Job("k")
	if !ok || len(jv.Shards) != 2 {
		t.Fatalf("after duplicate submit: shards = %+v, want the first plan", jv.Shards)
	}

	// First completion wins and counts its failed attempts; a raced
	// duplicate is a no-op, its attempts included.
	l.Apply(7, LedgerRecord{Op: OpShardDone, Key: "k", Shard: 0, Worker: "w2", Attempt: 1, Result: json.RawMessage(`"r1"`)})
	l.Apply(8, LedgerRecord{Op: OpShardDone, Key: "k", Shard: 0, Worker: "w3", Attempt: 2, Result: json.RawMessage(`"r2"`)})
	jv, _ = l.Job("k")
	if string(jv.Shards[0].Result) != `"r1"` || jv.Shards[0].Worker != "w2" || jv.DoneShards != 1 {
		t.Fatalf("first-wins violated: %+v done=%d", jv.Shards[0], jv.DoneShards)
	}
	if l.Requeues() != 1 {
		t.Fatalf("requeues = %d, want the winning record's 1 failed attempt", l.Requeues())
	}

	l.Apply(10, LedgerRecord{Op: OpShardDone, Key: "k", Shard: 1, Worker: "w1", Result: json.RawMessage(`"r3"`)})
	if refs := l.ActiveShards(); len(refs) != 0 {
		t.Fatalf("decided job still has pending shards %v", refs)
	}

	// Unknown ops, unknown keys and out-of-range shards must be
	// harmless no-ops.
	l.Apply(13, LedgerRecord{Op: "noop"})
	l.Apply(14, LedgerRecord{Op: OpShardDone, Key: "missing", Shard: 0})
	l.Apply(15, LedgerRecord{Op: OpShardDone, Key: "k", Shard: 99})
	if jv, _ = l.Job("k"); jv.DoneShards != 2 || l.Requeues() != 1 {
		t.Fatalf("no-op records changed the job: %+v requeues=%d", jv, l.Requeues())
	}
}

// TestLedgerDeterminism applies the same record sequence to two
// ledgers and expects identical snapshots — the property that keeps
// replicas converged.
func TestLedgerDeterminism(t *testing.T) {
	seq := []LedgerRecord{
		{Op: OpSubmit, Key: "a", Shards: []ShardRange{{0, 3}, {3, 6}}},
		{Op: OpSubmit, Key: "b", Shards: []ShardRange{{0, 10}}},
		{Op: OpShardDone, Key: "a", Shard: 0, Worker: "w2", Attempt: 1, Result: json.RawMessage(`1`)},
		{Op: OpShardDone, Key: "a", Shard: 1, Worker: "w2", Result: json.RawMessage(`2`)},
		{Op: "decide", Key: "a"}, // retired: a no-op on every replica
	}
	l1, l2 := NewLedger(), NewLedger()
	for i, rec := range seq {
		l1.Apply(uint64(i+1), rec)
		l2.Apply(uint64(i+1), rec)
	}
	j1, _ := json.Marshal(l1.Jobs())
	j2, _ := json.Marshal(l2.Jobs())
	if string(j1) != string(j2) {
		t.Fatalf("replicas diverged:\n%s\n%s", j1, j2)
	}
	if l1.Requeues() != l2.Requeues() {
		t.Fatalf("requeue counters diverged: %d vs %d", l1.Requeues(), l2.Requeues())
	}
}

// TestLedgerReplaysRetiredOps folds a log as older releases wrote it,
// with lease, requeue and decide records, and expects the job states
// those releases folded it to, less the retired fields: a shard leased
// at the end reads pending, and a job with every shard done is decided
// without its decide record. The retired ops apply as no-ops, and the
// pending shard is one the next leader dispatches.
func TestLedgerReplaysRetiredOps(t *testing.T) {
	log := []string{
		`{"op":"submit","key":"a","request":{},"shards":[{"lo":0,"hi":3},{"lo":3,"hi":6}]}`,
		`{"op":"submit","key":"b","request":{},"shards":[{"lo":0,"hi":2},{"lo":2,"hi":4}]}`,
		`{"op":"lease","key":"a","shard":0,"worker":"w1"}`,
		`{"op":"lease","key":"a","shard":1,"worker":"w2"}`,
		`{"op":"requeue","key":"a","shard":0,"reason":"leader-change"}`,
		`{"op":"lease","key":"a","shard":0,"worker":"w2"}`,
		`{"op":"shard_done","key":"a","shard":0,"worker":"w2","result":1}`,
		`{"op":"shard_done","key":"a","shard":1,"worker":"w2","result":2}`,
		`{"op":"decide","key":"a","merged_sha":"s"}`,
		`{"op":"lease","key":"b","shard":0,"worker":"w1"}`,
		`{"op":"shard_done","key":"b","shard":0,"worker":"w1","result":3}`,
		`{"op":"lease","key":"b","shard":1,"worker":"w3"}`,
	}
	l := NewLedger()
	for i, line := range log {
		var rec LedgerRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v", i+1, err)
		}
		l.Apply(uint64(i+1), rec)
	}
	done := func(worker, result string) ShardState {
		return ShardState{Status: ShardDone, Worker: worker, Result: json.RawMessage(result)}
	}
	want := []JobView{
		{Key: "a", Request: json.RawMessage(`{}`), DoneShards: 2,
			Shards: []ShardState{done("w2", "1"), done("w2", "2")}},
		{Key: "b", Request: json.RawMessage(`{}`), DoneShards: 1,
			Shards: []ShardState{done("w1", "3"), {Status: ShardPending}}},
	}
	want[0].Shards[0].Range, want[0].Shards[1].Range = ShardRange{0, 3}, ShardRange{3, 6}
	want[1].Shards[0].Range, want[1].Shards[1].Range = ShardRange{0, 2}, ShardRange{2, 4}
	got, _ := json.Marshal(l.Jobs())
	exp, _ := json.Marshal(want)
	if string(got) != string(exp) {
		t.Fatalf("older log folded to\n%s\nwant\n%s", got, exp)
	}
	if refs := l.ActiveShards(); !slices.Equal(refs, []ShardRef{{Key: "b", Shard: 1}}) {
		t.Fatalf("pending shards = %v, want the one leased at the end", refs)
	}
}

// TestPlanShards checks the plan tiles [0, trials) contiguously with
// near-equal sizes for assorted shapes.
func TestPlanShards(t *testing.T) {
	for _, tc := range []struct{ trials, parts, want int }{
		{10, 3, 3}, {10, 1, 1}, {3, 5, 3}, {1, 1, 1}, {100, 7, 7}, {5, 0, 1},
	} {
		plan := PlanShards(tc.trials, tc.parts)
		if len(plan) != tc.want {
			t.Errorf("PlanShards(%d, %d) = %d shards, want %d", tc.trials, tc.parts, len(plan), tc.want)
			continue
		}
		lo := 0
		minSz, maxSz := tc.trials, 0
		for _, s := range plan {
			if s.Lo != lo {
				t.Fatalf("PlanShards(%d, %d): gap/overlap at %d (plan %v)", tc.trials, tc.parts, lo, plan)
			}
			if sz := s.Hi - s.Lo; sz > 0 {
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
			} else {
				t.Fatalf("PlanShards(%d, %d): empty shard %v", tc.trials, tc.parts, s)
			}
			lo = s.Hi
		}
		if lo != tc.trials {
			t.Fatalf("PlanShards(%d, %d) tiles to %d, want %d", tc.trials, tc.parts, lo, tc.trials)
		}
		if maxSz-minSz > 1 {
			t.Errorf("PlanShards(%d, %d) sizes range [%d, %d], want near-equal", tc.trials, tc.parts, minSz, maxSz)
		}
	}
}

// ledgerRecordFrom decodes three bytes into a record over six keys and
// shards -1..3, so a random stream reaches every guarded transition:
// duplicate submits and duplicate and out-of-range shard_done. Op codes
// 1-3 and 6 are the lease, requeue and decide records older logs hold,
// which now apply as no-ops.
func ledgerRecordFrom(op, key, shard byte) LedgerRecord {
	rec := LedgerRecord{Key: string(rune('a' + key%6)), Shard: int(shard%5) - 1}
	switch op % 8 {
	case 0:
		rec.Op, rec.Shards = OpSubmit, make([]ShardRange, shard%4)
	case 1, 2:
		rec.Op, rec.Worker = "lease", "w1"
	case 3:
		rec.Op = "requeue"
	case 4, 5:
		rec.Op, rec.Worker, rec.Result = OpShardDone, "w1", json.RawMessage(`1`)
	case 6:
		rec.Op = "decide"
	default:
		rec.Op = "noop"
	}
	return rec
}

// checkActiveIndex compares the active index with a brute-force scan
// of every job: ActiveShards must return the pending shards in
// submission order, and the index must hold exactly the jobs with a
// shard not done.
func checkActiveIndex(t *testing.T, l *Ledger) {
	t.Helper()
	var wantKeys []string
	var want []ShardRef
	for _, jv := range l.Jobs() {
		if jv.DoneShards < len(jv.Shards) {
			wantKeys = append(wantKeys, jv.Key)
		}
		for i, s := range jv.Shards {
			if s.Status == ShardPending {
				want = append(want, ShardRef{Key: jv.Key, Shard: i})
			}
		}
	}
	if got := l.ActiveShards(); !slices.Equal(got, want) {
		t.Fatalf("ActiveShards() = %v, scan finds %v", got, want)
	}
	l.mu.Lock()
	var gotKeys []string
	for _, j := range l.active {
		gotKeys = append(gotKeys, j.key)
	}
	l.mu.Unlock()
	if !slices.Equal(gotKeys, wantKeys) {
		t.Fatalf("active index holds %v, want %v", gotKeys, wantKeys)
	}
}

// TestLedgerActiveIndexMatchesScan drives Apply with seeded random
// record streams and checks the active index after every record.
func TestLedgerActiveIndexMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := rng.New(seed)
			l := NewLedger()
			for i := 1; i <= 300; i++ {
				op, key, shard := r.Uint64(), r.Uint64(), r.Uint64()
				l.Apply(uint64(i), ledgerRecordFrom(byte(op), byte(key), byte(shard)))
				checkActiveIndex(t, l)
			}
		})
	}
}

// FuzzLedgerActiveIndex is TestLedgerActiveIndexMatchesScan over a
// fuzzed record stream, three bytes a record.
func FuzzLedgerActiveIndex(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 0, 1, 4, 0, 1, 4, 0, 2, 4, 0, 3, 6, 0, 0})
	f.Add([]byte{0, 1, 2, 0, 2, 1, 1, 1, 1, 3, 1, 1, 6, 1, 0, 4, 2, 1, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLedger()
		for i := 0; i+3 <= len(data) && i < 3*512; i += 3 {
			l.Apply(uint64(i/3+1), ledgerRecordFrom(data[i], data[i+1], data[i+2]))
			checkActiveIndex(t, l)
		}
	})
}

// ledgerWithHistory returns a ledger holding decided jobs, all shards
// done, split around three in-flight jobs: two pending, one with a done
// shard.
func ledgerWithHistory(decided int) *Ledger {
	l := NewLedger()
	var index uint64
	apply := func(rec LedgerRecord) {
		index++
		l.Apply(index, rec)
	}
	plan := PlanShards(6, 3)
	history := func(from, to int) {
		for i := from; i < to; i++ {
			key := fmt.Sprintf("decided-%d", i)
			apply(LedgerRecord{Op: OpSubmit, Key: key, Shards: plan})
			for s := range plan {
				apply(LedgerRecord{Op: OpShardDone, Key: key, Shard: s, Result: json.RawMessage(`1`)})
			}
		}
	}
	history(0, decided/2)
	for _, key := range []string{"x", "y", "z"} {
		apply(LedgerRecord{Op: OpSubmit, Key: key, Shards: plan})
	}
	apply(LedgerRecord{Op: OpShardDone, Key: "z", Shard: 0, Result: json.RawMessage(`1`)})
	history(decided/2, decided)
	return l
}

// TestLedgerActiveShardsCost checks that the pending read does not
// grow with the decided history: the same in-flight jobs cost the same
// allocations beside 0 and 10 000 decided jobs, and yield the same refs.
func TestLedgerActiveShardsCost(t *testing.T) {
	small, large := ledgerWithHistory(0), ledgerWithHistory(10000)
	if a, b := small.ActiveShards(), large.ActiveShards(); len(a) != 8 || !slices.Equal(a, b) {
		t.Fatalf("pending refs: %v beside no history, %v beside 10 000 decided jobs", a, b)
	}
	read := func(l *Ledger) float64 {
		return testing.AllocsPerRun(100, func() { _ = l.ActiveShards() })
	}
	if a, b := read(small), read(large); a != b {
		t.Fatalf("pending read allocates %v times beside no history, %v beside 10 000 decided jobs", a, b)
	}
}

var pendingSink []ShardRef

// BenchmarkLedgerPending times the leader's pending read beside 10 000
// decided jobs.
func BenchmarkLedgerPending(b *testing.B) {
	l := ledgerWithHistory(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pendingSink = l.ActiveShards()
	}
}

// refLedger is the ledger as a plain fold over every record it has
// applied, rebuilt on each read: the views a ledger that kept every
// job's bytes in memory would give.
type refLedger struct{ recs []LedgerRecord }

func (r *refLedger) jobs() []JobView {
	var views []*JobView
	byKey := map[string]*JobView{}
	for _, rec := range r.recs {
		v := byKey[rec.Key]
		switch rec.Op {
		case OpSubmit:
			if v != nil {
				continue
			}
			v = &JobView{Key: rec.Key, Request: rec.Request}
			for _, sr := range rec.Shards {
				v.Shards = append(v.Shards, ShardState{Range: sr, Status: ShardPending})
			}
			byKey[rec.Key] = v
			views = append(views, v)
		case OpShardDone:
			if v == nil || rec.Shard < 0 || rec.Shard >= len(v.Shards) || v.Shards[rec.Shard].Status == ShardDone {
				continue
			}
			s := &v.Shards[rec.Shard]
			s.Status, s.Worker, s.Result = ShardDone, rec.Worker, rec.Result
			v.DoneShards++
		}
	}
	out := make([]JobView, len(views))
	for i, v := range views {
		out[i] = *v
	}
	return out
}

// drawLedgerRecord draws one record over keys a–f: submits with 0–3
// shards, in-range and out-of-range shard_done records from one of
// three workers, and the lease, requeue and decide ops of older logs.
// Requests, results and attempts vary with the draw, so a view built
// from the wrong record shows.
func drawLedgerRecord(r *rng.Rand) LedgerRecord {
	rec := LedgerRecord{Key: string(rune('a' + r.Intn(6)))}
	switch op := r.Intn(10); {
	case op < 3:
		rec.Op = OpSubmit
		rec.Request = json.RawMessage(fmt.Sprintf(`{"seed":%d}`, r.Intn(1000)))
		if parts := r.Intn(4); parts > 0 {
			rec.Shards = PlanShards(parts+r.Intn(4), parts)
		}
	case op < 8:
		rec.Op, rec.Shard = OpShardDone, r.Intn(5)-1
		rec.Worker = fmt.Sprintf("w%d", 1+r.Intn(3))
		rec.Attempt = r.Intn(3)
		rec.Result = json.RawMessage(fmt.Sprintf(`{"r":%d}`, r.Intn(1000)))
	default:
		rec.Op = []string{"lease", "requeue", "decide"}[op-8+r.Intn(2)]
	}
	return rec
}

// clusterJobsBody is the /cluster/jobs response body for views.
func clusterJobsBody(views []JobView) string {
	w := httptest.NewRecorder()
	writeClusterJSON(w, views)
	return w.Body.String()
}

// TestLedgerViewsMatchReference feeds seeded random record streams to
// a ledger whose loader decodes each record from its journal bytes, as
// a replica's does, and to refLedger. After every record, Job, Jobs,
// WaitAllDone and the /cluster/jobs body must be the same for both.
func TestLedgerViewsMatchReference(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		journal := map[uint64][]byte{}
		l := newLedger(func(index uint64) (LedgerRecord, error) {
			var rec LedgerRecord
			err := json.Unmarshal(journal[index], &rec)
			return rec, err
		})
		ref := &refLedger{}
		for i := uint64(1); i <= 120; i++ {
			rec := drawLedgerRecord(r)
			journal[i], _ = json.Marshal(rec)
			l.Apply(i, rec)
			ref.recs = append(ref.recs, rec)

			refJobs := ref.jobs()
			if got, want := clusterJobsBody(l.Jobs()), clusterJobsBody(refJobs); got != want {
				t.Fatalf("seed %d, record %d (%+v): /cluster/jobs\n%s\nwant\n%s", seed, i, rec, got, want)
			}
			for _, key := range []string{"a", "b", "c", "d", "e", "f", "g"} {
				got, ok := l.Job(key)
				at := slices.IndexFunc(refJobs, func(v JobView) bool { return v.Key == key })
				var want JobView
				wantOK := at >= 0
				if wantOK {
					want = refJobs[at]
				}
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(want)
				if ok != wantOK || string(gotJSON) != string(wantJSON) {
					t.Fatalf("seed %d, record %d: Job(%s) = %s %v, want %s %v", seed, i, key, gotJSON, ok, wantJSON, wantOK)
				}
				decided := wantOK && len(want.Shards) > 0 && want.DoneShards == len(want.Shards)
				got, err := l.WaitAllDone(closed, key)
				gotJSON, _ = json.Marshal(got)
				if (err == nil) != decided || (decided && string(gotJSON) != string(wantJSON)) {
					t.Fatalf("seed %d, record %d: WaitAllDone(%s) = %s %v, want %s (decided %v)", seed, i, key, gotJSON, err, wantJSON, decided)
				}
			}
		}
	}
}

// TestLedgerDecidedJobFootprint bounds what a decided job costs a
// replica in live heap: its key digest and packed log indexes, nothing
// of its request, results, key string or shard states.
func TestLedgerDecidedJobFootprint(t *testing.T) {
	const jobs, maxBytes = 10000, 150
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	l := newLedger(func(uint64) (LedgerRecord, error) { return LedgerRecord{}, fmt.Errorf("not read") })
	var index uint64
	for i := range jobs {
		q := service.Request{Protocol: "3-majority", N: 1000, K: 8, Seed: uint64(i + 1), Trials: 2}.Normalize()
		reqJSON, _ := json.Marshal(q)
		index++
		l.Apply(index, LedgerRecord{Op: OpSubmit, Key: q.Key(), Request: reqJSON, Shards: PlanShards(q.Trials, 2)})
		for s := range 2 {
			index++
			l.Apply(index, LedgerRecord{Op: OpShardDone, Key: q.Key(), Shard: s, Worker: "w1", Result: json.RawMessage(`{"trials":[1]}`)})
		}
	}
	after := heap()
	runtime.KeepAlive(l)
	if n := l.jobCount(); n != jobs {
		t.Fatalf("ledger indexes %d jobs, want %d", n, jobs)
	}
	per := (int64(after) - int64(before)) / jobs
	t.Logf("%d B of live heap per decided job", per)
	if per > maxBytes {
		t.Fatalf("a decided 2-shard job holds %d B of live heap, want at most %d", per, maxBytes)
	}
}
