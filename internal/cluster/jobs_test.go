package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/store"
)

// testLogWriter funnels a coordinator's structured log lines into the test
// log, trailing newline trimmed.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimSuffix(p, []byte("\n")))
	return len(p), nil
}

// jobMachines picks two machines whose four cells (× two corpora) HRW-map
// to both workers, so sharding and failover tests are guaranteed to involve
// the whole fleet. The pool is small clustered variants; with two workers a
// suitable pair practically always exists.
func jobMachines(t *testing.T, coord *Coordinator, maxLoops int) []machine.Config {
	t.Helper()
	pool := []*machine.Config{
		machine.MustClustered(2, 64, 1, 1),
		machine.MustClustered(4, 64, 1, 1),
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(4, 32, 1, 1),
		machine.MustClustered(4, 128, 1, 1),
		machine.MustClustered(2, 64, 2, 1),
	}
	cands := coord.reg.candidates()
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			owners := map[string]bool{}
			for _, m := range []*machine.Config{pool[i], pool[j]} {
				for _, corpus := range []string{"SPECfp95", "DSP"} {
					n, _, _, ok := place(cands, cellKey(m, corpus, maxLoops, false), nil, 0)
					if !ok {
						t.Fatal("no placement candidates")
					}
					owners[n.id] = true
				}
			}
			if len(owners) >= 2 {
				return []machine.Config{*pool[i], *pool[j]}
			}
		}
	}
	t.Fatal("no machine pair spreads across both workers")
	return nil
}

func createJob(t *testing.T, base string, req server.SweepRequest) JobStatus {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create job: %d %s", resp.StatusCode, out)
	}
	var st JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("job ack not JSON: %v\n%s", err, out)
	}
	return st
}

func jobStatus(t *testing.T, base, id string, partial bool) JobStatus {
	t.Helper()
	url := base + "/v1/jobs/" + id
	if partial {
		url += "?partial=1"
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status: %d %s", resp.StatusCode, out)
	}
	var st JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, out)
	}
	return st
}

func waitForJob(t *testing.T, base, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := jobStatus(t, base, id, false)
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after %v: %+v", id, timeout, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func jobCSV(t *testing.T, base, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// singleNodeCSV computes the same sweep in-process through bench.Sweep —
// the distributed job's ground truth.
func singleNodeCSV(t *testing.T, req server.SweepRequest) []byte {
	t.Helper()
	machines, corpora, err := server.ResolveSweep(&req)
	if err != nil {
		t.Fatal(err)
	}
	points, err := bench.Sweep(context.Background(), machines, corpora, bench.Config{Parallel: 4, Verify: req.Verify})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bench.WriteSweepCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJobShardedCSVByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed sweep; the cluster-smoke CI job runs it")
	}
	coord, base := startCoordinator(t, testConfig())
	startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	req := server.SweepRequest{
		Machines: jobMachines(t, coord, 1),
		Corpora:  []string{"SPECfp95", "DSP"},
		MaxLoops: 1,
	}
	ack := createJob(t, base, req)
	if ack.Cells != 4 {
		t.Fatalf("job has %d cells, want 4", ack.Cells)
	}

	st := waitForJob(t, base, ack.ID, 120*time.Second)
	if st.State != "done" || st.Done != st.Cells || st.Failed != 0 {
		t.Fatalf("job did not finish cleanly: %+v", st)
	}
	// Both workers actually computed cells (the machine pair was chosen so
	// HRW spreads them).
	nodes := map[string]bool{}
	for _, cell := range st.Detail {
		nodes[cell.Node] = true
	}
	if !nodes["wA"] || !nodes["wB"] {
		t.Fatalf("cells not sharded across the fleet: %+v", st.Detail)
	}

	code, got := jobCSV(t, base, ack.ID)
	if code != http.StatusOK {
		t.Fatalf("csv: %d %s", code, got)
	}
	if want := singleNodeCSV(t, req); !bytes.Equal(got, want) {
		t.Fatalf("distributed CSV differs from single-node sweep:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestJobSurvivesWorkerKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed sweep; the cluster-smoke CI job runs it")
	}
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	req := server.SweepRequest{
		Machines: jobMachines(t, coord, 1),
		Corpora:  []string{"SPECfp95", "DSP"},
		MaxLoops: 1,
	}

	// wA accepts sweep cells but never answers them; once a cell is
	// in-flight there, crash it.
	release := wA.chaos.armStallSweeps()
	defer close(release)
	ack := createJob(t, base, req)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := jobStatus(t, base, ack.ID, false)
		inflight := false
		for _, cell := range st.Detail {
			if cell.Node == "wA" && cell.State == "running" {
				inflight = true
			}
		}
		if inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cell ever in flight on wA: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	wA.kill()

	// The job must complete with no lost cells: wA's cells re-place on wB.
	st := waitForJob(t, base, ack.ID, 120*time.Second)
	if st.State != "done" || st.Done != st.Cells || st.Failed != 0 {
		t.Fatalf("job lost cells after worker death: %+v", st)
	}
	for _, cell := range st.Detail {
		if cell.Node != "wB" && cell.State == "done" && cell.Node == "wA" {
			t.Fatalf("cell reported done on the dead worker: %+v", cell)
		}
	}
	waitForStates(t, coord, map[string]string{"wA": "dead", "wB": "ready"})

	// And the reassembled CSV is still byte-identical to the single-node
	// sweep: failover changed placement, never bytes.
	code, got := jobCSV(t, base, ack.ID)
	if code != http.StatusOK {
		t.Fatalf("csv: %d %s", code, got)
	}
	if want := singleNodeCSV(t, req); !bytes.Equal(got, want) {
		t.Fatalf("post-failover CSV differs from single-node sweep:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReconcilerReplacesStrandedCells covers the hang (not crash) failure:
// the worker keeps TCP open but never answers and stops heartbeating. Only
// the reconciliation loop can notice — it must mark the node dead, cancel
// the stranded attempt and re-place the cell.
func TestReconcilerReplacesStrandedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed sweep; the cluster-smoke CI job runs it")
	}
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	req := server.SweepRequest{
		Machines: jobMachines(t, coord, 1),
		Corpora:  []string{"SPECfp95", "DSP"},
		MaxLoops: 1,
	}
	release := wA.chaos.armStallSweeps()
	defer close(release)
	ack := createJob(t, base, req)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := jobStatus(t, base, ack.ID, false)
		inflight := false
		for _, cell := range st.Detail {
			if cell.Node == "wA" && cell.State == "running" {
				inflight = true
			}
		}
		if inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cell ever in flight on wA: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Silence, don't crash: connections stay open, heartbeats stop.
	wA.stopHeartbeats()

	st := waitForJob(t, base, ack.ID, 120*time.Second)
	if st.State != "done" || st.Done != st.Cells || st.Failed != 0 {
		t.Fatalf("job lost cells after worker went silent: %+v", st)
	}
	waitForStates(t, coord, map[string]string{"wA": "dead", "wB": "ready"})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	found := false
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "gpcoordd_reconcile_replacements_total ") &&
			!strings.HasSuffix(line, " 0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reconciler never re-placed a stranded cell:\n%s", text)
	}
}

// TestJobResumesAfterCoordinatorRestart is the tentpole's in-process
// proof: a journaled coordinator is killed mid-sweep (HTTP server closed,
// coordinator closed — the journal sees no terminal state, exactly as
// after a kill -9 plus fsync'd WAL), a fresh coordinator on the same
// journal and address resumes the job, restores the journaled cells
// without recomputing them, and the final CSV is byte-identical to the
// single-node sweep.
func TestJobResumesAfterCoordinatorRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed sweep; the cluster-smoke CI job runs it")
	}
	journalDir := t.TempDir()
	openJournal := func() *store.Journal {
		j, err := store.OpenJournal(journalDir, store.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	cfgA := testConfig()
	cfgA.Store = openJournal()
	coordA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	base := "http://" + addr
	hsA := &http.Server{Handler: coordA.Handler()}
	go func() { _ = hsA.Serve(ln) }()

	// The workers heartbeat at the fixed address for the whole test; after
	// the restart their next beat reaches the successor coordinator, whose
	// journal already knows their IDs.
	wA := startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coordA, map[string]string{"wA": "ready", "wB": "ready"})

	req := server.SweepRequest{
		Machines: jobMachines(t, coordA, 1),
		Corpora:  []string{"SPECfp95", "DSP"},
		MaxLoops: 1,
	}
	// wA stalls its sweep cells, so at crash time the job is guaranteed
	// half-finished: wB's cells journaled done, wA's still pending.
	release := wA.chaos.armStallSweeps()
	ack := createJob(t, base, req)

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := jobStatus(t, base, ack.ID, false)
		stalled := false
		for _, cell := range st.Detail {
			if cell.Node == "wA" && cell.State == "running" {
				stalled = true
			}
		}
		if st.Done >= 1 && stalled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached the half-done crash point: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Crash the coordinator. Close() abandons the running job — its
	// journaled state stays "running" — and closes the journal.
	_ = hsA.Close()
	coordA.Close()
	close(release)

	// Successor: same journal, same address.
	cfgB := testConfig()
	cfgB.Store = openJournal()
	cfgB.Logger = slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
	coordB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	var ln2 net.Listener
	for attempt := 0; ; attempt++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("relisten on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	hsB := &http.Server{Handler: coordB.Handler()}
	go func() { _ = hsB.Serve(ln2) }()
	t.Cleanup(func() {
		_ = hsB.Close()
		coordB.Close()
	})

	// The listing names the resumed job without knowing its ID.
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing) != 1 || listing[0].ID != ack.ID || !listing[0].Resumed {
		t.Fatalf("job listing after restart: %+v", listing)
	}

	st := waitForJob(t, base, ack.ID, 120*time.Second)
	if st.State != "done" || st.Done != st.Cells || st.Failed != 0 {
		t.Fatalf("resumed job did not finish cleanly: %+v", st)
	}
	if !st.Resumed {
		t.Fatalf("finished job lost its resumed mark: %+v", st)
	}
	// The cells wB finished before the crash were restored from the
	// journal, not recomputed: a restored cell has no post-restart attempts.
	restored := 0
	for _, cell := range st.Detail {
		if cell.State == "done" && cell.Attempts == 0 {
			restored++
		}
	}
	if restored == 0 {
		t.Fatalf("no cell was restored from the journal: %+v", st.Detail)
	}

	code, got := jobCSV(t, base, ack.ID)
	if code != http.StatusOK {
		t.Fatalf("csv: %d %s", code, got)
	}
	if want := singleNodeCSV(t, req); !bytes.Equal(got, want) {
		t.Fatalf("post-restart CSV differs from single-node sweep:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Recovery surfaces in the metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mtext, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"gpcoordd_recovery_jobs_resumed 1", "gpcoordd_recovery_nodes_adopted 2"} {
		if !strings.Contains(string(mtext), want+"\n") {
			t.Fatalf("metrics missing %q:\n%s", want, mtext)
		}
	}
	for _, line := range strings.Split(string(mtext), "\n") {
		if strings.HasPrefix(line, "gpcoordd_recovery_cells_restored ") && strings.HasSuffix(line, " 0") {
			t.Fatalf("no cells restored per metrics:\n%s", mtext)
		}
	}
}

func TestJobEndpoints(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	wA := startWorker(t, base, "wA")
	waitForStates(t, coord, map[string]string{"wA": "ready"})

	// Unknown job.
	resp, err := http.Get(base + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}

	// A stalled job answers 202 on its CSV endpoint while running.
	release := wA.chaos.armStallSweeps()
	ack := createJob(t, base, server.SweepRequest{
		Machines: []machine.Config{*machine.MustClustered(2, 64, 1, 1)},
		Corpora:  []string{"SPECfp95"},
		MaxLoops: 1,
	})
	code, _ := jobCSV(t, base, ack.ID)
	if code != http.StatusAccepted {
		t.Fatalf("running job CSV endpoint: %d, want 202", code)
	}
	close(release)

	st := waitForJob(t, base, ack.ID, 120*time.Second)
	if st.State != "done" {
		t.Fatalf("job: %+v", st)
	}

	// partial=1 exposes per-cell rows.
	withRows := jobStatus(t, base, ack.ID, true)
	if len(withRows.Detail) != 1 || withRows.Detail[0].Rows == "" {
		t.Fatalf("partial status has no rows: %+v", withRows)
	}
	if !strings.Contains(withRows.Detail[0].Rows, "MEAN") {
		t.Fatalf("cell rows missing MEAN row: %q", withRows.Detail[0].Rows)
	}
}

func TestCellRowsValidation(t *testing.T) {
	header := string(sweepCSVHeader)
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"good", header + "SPECfp95,m,prog,1,2,3,4\n", true},
		{"missing header", "SPECfp95,m,prog,1,2,3,4\n", false},
		{"truncated row", header + "SPECfp95,m,prog,1,2", false},
		{"empty fragment", header, false},
		{"in-band error first", header + "ERROR,\"boom\",,,,,\n", false},
		{"in-band error later", header + "SPECfp95,m,prog,1,2,3,4\nERROR,\"boom\",,,,,\n", false},
	}
	for _, tc := range cases {
		if _, got := cellRows([]byte(tc.body)); got != tc.ok {
			t.Errorf("%s: cellRows ok=%v, want %v", tc.name, got, tc.ok)
		}
	}
}

func TestJobTableBounded(t *testing.T) {
	tbl := &jobTable{byID: make(map[string]*job)}
	mkJob := func(id string, state jobState) *job {
		j := &job{id: id, done: make(chan struct{}), state: state}
		j.ctx, j.cancel = context.WithCancel(context.Background())
		return j
	}
	if _, ok := tbl.insert(mkJob("a", jobDone), 2); !ok {
		t.Fatal("insert under capacity failed")
	}
	if _, ok := tbl.insert(mkJob("b", jobRunning), 2); !ok {
		t.Fatal("insert under capacity failed")
	}
	// Full table evicts the oldest finished job and reports which.
	evicted, ok := tbl.insert(mkJob("c", jobRunning), 2)
	if !ok || evicted != "a" {
		t.Fatalf("insert with evictable job: evicted=%q ok=%v", evicted, ok)
	}
	if tbl.get("a") != nil {
		t.Fatal("finished job not evicted")
	}
	// Everything running: shed.
	if _, ok := tbl.insert(mkJob("d", jobRunning), 2); ok {
		t.Fatal("insert succeeded with every retained job running")
	}
	if tbl.get("b") == nil || tbl.get("c") == nil {
		t.Fatal("running jobs were evicted")
	}
}
