package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// applyOps drives the same pseudo-random mutation sequence against any
// Store. Errors from mutations that reference unknown jobs are expected
// (the generator does not track liveness perfectly) — what matters is
// that both stores agree on every outcome.
func applyOps(t *testing.T, s Store, rng *rand.Rand, n int) []error {
	t.Helper()
	errs := make([]error, 0, n)
	var jobSeq int64
	for i := 0; i < n; i++ {
		var err error
		switch rng.Intn(7) {
		case 0:
			err = s.PutNode(NodeRecord{
				ID:          fmt.Sprintf("n%d", rng.Intn(4)),
				Endpoint:    fmt.Sprintf("127.0.0.1:%d", 9000+rng.Intn(100)),
				Capacity:    rng.Intn(8),
				AlgoVersion: fmt.Sprintf("gp/%d", 1+rng.Intn(3)),
			})
		case 1:
			err = s.DeleteNode(fmt.Sprintf("n%d", rng.Intn(5)))
		case 2:
			jobSeq++
			err = s.PutJob(fmt.Sprintf("job-%d", rng.Intn(6)), jobSeq,
				[]byte(fmt.Sprintf(`{"maxLoops":%d}`, rng.Intn(1000))))
		case 3:
			err = s.FinishCell(fmt.Sprintf("job-%d", rng.Intn(6)), CellRecord{
				Index:       rng.Intn(10),
				Key:         fmt.Sprintf("key-%d", rng.Intn(20)),
				Rows:        []byte(fmt.Sprintf("a,b,%d\n", rng.Intn(1000))),
				AlgoVersion: fmt.Sprintf("gp/%d", 1+rng.Intn(3)),
			})
		case 4:
			state := JobDone
			if rng.Intn(2) == 0 {
				state = JobFailed
			}
			err = s.SetJobState(fmt.Sprintf("job-%d", rng.Intn(6)), state)
		case 5:
			err = s.DeleteJob(fmt.Sprintf("job-%d", rng.Intn(6)))
		case 6:
			err = s.SetEpoch(uint64(rng.Intn(16)))
		}
		errs = append(errs, err)
	}
	return errs
}

// TestJournalMatchesMemory is the round-trip property test: the same
// random op sequence applied to Memory and to a Journal — with the
// journal reopened (replayed) mid-sequence and at the end — must yield
// deeply equal states and identical per-op outcomes.
func TestJournalMatchesMemory(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			mem := NewMemory()
			j, err := OpenJournal(dir, JournalOptions{CompactBytes: 2048})
			if err != nil {
				t.Fatal(err)
			}

			memRng := rand.New(rand.NewSource(seed))
			jRng := rand.New(rand.NewSource(seed))
			memErrs := applyOps(t, mem, memRng, 100)
			jErrs := applyOps(t, j, jRng, 100)
			for i := range memErrs {
				if (memErrs[i] == nil) != (jErrs[i] == nil) {
					t.Fatalf("op %d: memory err=%v journal err=%v", i, memErrs[i], jErrs[i])
				}
			}

			// Reopen mid-sequence: replay must reconstruct the fold.
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j, err = OpenJournal(dir, JournalOptions{CompactBytes: 2048})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			applyOps(t, mem, memRng, 100)
			applyOps(t, j, jRng, 100)

			ms, err := mem.Load()
			if err != nil {
				t.Fatal(err)
			}
			js, err := j.Load()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ms, js) {
				t.Fatalf("states diverged after replay:\nmemory:  %+v\njournal: %+v", ms, js)
			}

			// And once more with a fresh handle, purely from disk.
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := OpenJournal(dir, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			js2, err := j2.Load()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ms, js2) {
				t.Fatalf("states diverged after cold replay:\nmemory:  %+v\njournal: %+v", ms, js2)
			}
		})
	}
}

// TestJournalTornTail truncates the WAL at every byte offset inside its
// final record and verifies the journal reopens cleanly with exactly the
// prefix state, reporting the truncation — the kill -9 mid-append case.
func TestJournalTornTail(t *testing.T) {
	build := func(dir string) {
		j, err := OpenJournal(dir, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.PutNode(NodeRecord{ID: "n1", Endpoint: "e1", Capacity: 2}); err != nil {
			t.Fatal(err)
		}
		if err := j.PutJob("job-1", 1, []byte(`{"maxLoops":64}`)); err != nil {
			t.Fatal(err)
		}
		if err := j.FinishCell("job-1", CellRecord{Index: 0, Key: "k0", Rows: []byte("r0\n")}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ref := t.TempDir()
	build(ref)
	walBytes, err := os.ReadFile(filepath.Join(ref, walFile))
	if err != nil {
		t.Fatal(err)
	}
	// Find where the last record starts by walking the frames.
	r := bufio.NewReader(bytes.NewReader(walBytes))
	var offs []int
	off := 0
	for {
		_, n, err := readFrame(r)
		if err != nil {
			break
		}
		offs = append(offs, off)
		off += n
	}
	if len(offs) != 3 || off != len(walBytes) {
		t.Fatalf("expected 3 clean frames covering the wal, got %d frames / %d of %d bytes", len(offs), off, len(walBytes))
	}
	lastStart := offs[2]

	for cut := lastStart; cut < len(walBytes); cut++ {
		dir := t.TempDir()
		build(dir)
		if err := os.Truncate(filepath.Join(dir, walFile), int64(cut)); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(dir, JournalOptions{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		s, err := j.Load()
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(s.Jobs) != 1 || len(s.Jobs[0].Cells) != 0 {
			t.Fatalf("cut=%d: expected job without cells, got %+v", cut, s.Jobs)
		}
		if cut > lastStart && j.Stats().TruncatedBytes != int64(cut-lastStart) {
			t.Fatalf("cut=%d: TruncatedBytes=%d want %d", cut, j.Stats().TruncatedBytes, cut-lastStart)
		}
		// The healed journal must accept appends and survive another open.
		if err := j.FinishCell("job-1", CellRecord{Index: 0, Key: "k0", Rows: []byte("r0\n")}); err != nil {
			t.Fatalf("cut=%d: append after heal: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(dir, JournalOptions{})
		if err != nil {
			t.Fatalf("cut=%d: reopen after heal: %v", cut, err)
		}
		s2, err := j2.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(s2.Jobs) != 1 || len(s2.Jobs[0].Cells) != 1 {
			t.Fatalf("cut=%d: healed state wrong: %+v", cut, s2.Jobs)
		}
		j2.Close()
	}

	// A flipped byte mid-payload (CRC-invalid, not at the tail boundary)
	// also truncates from that record on.
	dir := t.TempDir()
	build(dir)
	corrupted := append([]byte(nil), walBytes...)
	corrupted[lastStart+frameHeader] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, walFile), corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatalf("reopen with bit flip: %v", err)
	}
	defer j.Close()
	if j.Stats().TruncatedBytes == 0 {
		t.Fatal("bit-flipped record should have been truncated")
	}
}

// TestJournalCompaction forces compaction, checks the WAL shrank and a
// reopen sees identical state from the checkpoint, and then exercises the
// crash window where the WAL survives with records the checkpoint already
// folded (replay must skip them, not double-apply).
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{CompactBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.PutJob("job-1", 1, []byte(`{"maxLoops":64}`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := j.FinishCell("job-1", CellRecord{Index: i, Key: fmt.Sprintf("k%d", i), Rows: []byte("rows\n")}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Stats().Compactions == 0 {
		t.Fatal("expected at least one compaction")
	}
	want, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window: re-append stale pre-compaction records to
	// the WAL. Their seq ≤ checkpoint last_seq, so replay must skip them.
	stale := &record{Seq: 1, Op: opJobPut, ID: "job-ghost", JobSeq: 99, Request: []byte(`{}`)}
	payload, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Prepend: write at offset 0 of the (possibly non-empty) wal would
	// corrupt real records, so instead build wal = stale ++ existing.
	existing, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := writeFrame(f, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(existing); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatalf("reopen after crash-window: %v", err)
	}
	defer j2.Close()
	got, err := j2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("state changed across compaction+crash-window:\nwant %+v\ngot  %+v", want, got)
	}
	for _, jr := range got.Jobs {
		if jr.ID == "job-ghost" {
			t.Fatal("stale pre-checkpoint record was replayed")
		}
	}
}

// TestJournalVersionMismatch covers the fail-fast satellite: wrong
// VERSION, journal files with no VERSION, and an unwritable directory
// must all refuse to open with a clear error.
func TestJournalVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, versionFile), []byte("gpcoordd-journal-v99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, JournalOptions{}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version mismatch error, got %v", err)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, walFile), []byte("???"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir2, JournalOptions{}); err == nil || !strings.Contains(err.Error(), "VERSION") {
		t.Fatalf("expected missing-marker error, got %v", err)
	}

	if os.Geteuid() != 0 { // root ignores file modes; CI containers often run as root
		dir3 := t.TempDir()
		if err := os.Chmod(dir3, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(dir3, 0o755)
		if _, err := OpenJournal(dir3, JournalOptions{}); err == nil {
			t.Fatal("expected error opening journal in unwritable dir")
		}
	}

	// A corrupt checkpoint is a hard error, never a silent reset.
	dir4 := t.TempDir()
	j, err := OpenJournal(dir4, JournalOptions{CompactBytes: 1}) // compact on first append
	if err != nil {
		t.Fatal(err)
	}
	if err := j.PutNode(NodeRecord{ID: "n1", Endpoint: "e", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	cp, err := os.ReadFile(filepath.Join(dir4, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	cp[len(cp)-1] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir4, checkpointFile), cp, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir4, JournalOptions{}); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("expected checkpoint corruption error, got %v", err)
	}
}

// TestJournalClosedErrors verifies post-Close mutations fail loudly.
func TestJournalClosedErrors(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := j.PutNode(NodeRecord{ID: "n"}); err == nil {
		t.Fatal("expected error mutating closed journal")
	}
	if _, err := j.Load(); err == nil {
		t.Fatal("expected error loading closed journal")
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// appendJournal opens a NoSync journal holding one job and returns an
// append step: one journaled cell completion (marshal, CRC frame, buffered
// write), the store operation on the job hot path. NoSync isolates the
// encoding cost from device fsync latency, and the cell index cycles
// through 64 slots, so each append is the steady-state replacement write.
func appendJournal(tb testing.TB) func(i int) {
	tb.Helper()
	j, err := OpenJournal(tb.TempDir(), JournalOptions{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { j.Close() })
	if err := j.PutJob("bench-job", 1, []byte(`{"maxLoops":64}`)); err != nil {
		tb.Fatal(err)
	}
	rows := []byte("SPECfp95,machine,loop,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16\n")
	return func(i int) {
		if err := j.FinishCell("bench-job", CellRecord{
			Index: i % 64,
			Key:   "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
			Rows:  rows,
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	appendCell := appendJournal(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendCell(i)
	}
}

// TestJournalAppendAllocs pins a journal append at exactly 4 allocations,
// so a new allocation on the coordinator's job hot path fails here.
func TestJournalAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations to the append path")
	}
	appendCell := appendJournal(t)
	i := 0
	got := testing.AllocsPerRun(200, func() {
		appendCell(i)
		i++
	})
	if got != 4 {
		t.Errorf("%v allocs per journal append, want 4", got)
	}
}
