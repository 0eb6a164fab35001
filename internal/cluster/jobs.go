package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/store"
)

// The async batch layer: POST /v1/jobs accepts one machines × corpora ×
// schemes sweep, shards it cell-by-cell (one machine × corpus pair each,
// the unit bench.SweepCells enumerates) across the worker fleet, and
// reassembles the per-cell CSV fragments in enumeration order — so a
// finished job is byte-identical to single-node bench.Sweep output. Cells
// are placed by rendezvous hashing on their content key (machine text,
// corpus, trim, verify), so re-running the same job re-lands each cell on
// the worker that already computed it.

type cellState int

const (
	cellPending cellState = iota
	cellRunning
	cellDone
	cellFailed
)

func (s cellState) String() string {
	switch s {
	case cellPending:
		return "pending"
	case cellRunning:
		return "running"
	case cellDone:
		return "done"
	case cellFailed:
		return "failed"
	}
	return fmt.Sprintf("cellState(%d)", int(s))
}

// jobCell is one shard of a job. Mutable fields are guarded by the owning
// job's mutex.
type jobCell struct {
	index       int
	machineName string
	corpus      string
	key         string // content address, the HRW placement key
	reqBody     []byte // the worker /v1/sweep body for exactly this cell

	state    cellState
	node     string // node of the current/last attempt
	attempts int
	exclude  map[string]bool
	cancel   context.CancelFunc // in-flight attempt cancel, nil when idle
	rows     []byte             // CSV fragment (header stripped) once done
	err      string
}

type jobState int

const (
	jobRunning jobState = iota
	jobDone
	jobFailed
)

func (s jobState) String() string {
	switch s {
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	}
	return fmt.Sprintf("jobState(%d)", int(s))
}

// job is one async sweep. Its durable core — the request body, completed
// cell fragments and terminal state — is written through to the
// coordinator's store as it happens; placement, attempts and in-flight
// cancels stay in memory. A journaled coordinator restart therefore
// rebuilds every job from its request (the cell enumeration is
// deterministic), restores the cells the journal proves finished, and
// re-dispatches only the rest.
type job struct {
	id      string
	resumed bool // rebuilt from the journal after a restart
	ctx     context.Context
	cancel  context.CancelFunc

	mu    sync.Mutex
	state jobState
	cells []*jobCell
	csv   []byte // assembled on completion
	done  chan struct{}
	// algoVersion pins the job to the algorithm version of the first
	// worker a cell lands on ("" until then, or forever on a fleet that
	// does not advertise versions). Every later placement filters to the
	// pinned version: one job's CSV must never mix fragments computed by
	// different scheduler generations, because the mix would be silently
	// irreproducible on any single binary.
	algoVersion string
}

// JobCellStatus is the per-cell slice of a job-status response.
type JobCellStatus struct {
	Machine  string `json:"machine"`
	Corpus   string `json:"corpus"`
	State    string `json:"state"`
	Node     string `json:"node,omitempty"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
	// Rows carries a done cell's CSV fragment when the status request asked
	// for partial results (?partial=1).
	Rows string `json:"rows,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id} (and of the POST /v1/jobs
// acknowledgement); without Detail it is one entry of the GET /v1/jobs
// listing.
type JobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cells  int    `json:"cells"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	// Resumed marks a job rebuilt from the journal after a coordinator
	// restart.
	Resumed bool            `json:"resumed,omitempty"`
	Detail  []JobCellStatus `json:"cell_status,omitempty"`
}

// summary is the Detail-free status used by the GET /v1/jobs listing.
func (j *job) summary() JobStatus {
	st := j.status(false)
	st.Detail = nil
	return st
}

// status snapshots the job under its lock.
func (j *job) status(partial bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state.String(), Cells: len(j.cells), Resumed: j.resumed}
	for _, cl := range j.cells {
		cs := JobCellStatus{
			Machine:  cl.machineName,
			Corpus:   cl.corpus,
			State:    cl.state.String(),
			Node:     cl.node,
			Attempts: cl.attempts,
			Error:    cl.err,
		}
		switch cl.state {
		case cellDone:
			st.Done++
			if partial {
				cs.Rows = string(cl.rows)
			}
		case cellFailed:
			st.Failed++
		}
		st.Detail = append(st.Detail, cs)
	}
	return st
}

// jobTable is the coordinator's runtime job index; the durable record of
// each job lives in the store.
type jobTable struct {
	mu    sync.Mutex
	byID  map[string]*job
	order []string // creation order, for bounded retention
	seq   int64
	wg    sync.WaitGroup
}

func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

func (t *jobTable) running() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, j := range t.byID {
		j.mu.Lock()
		if j.state == jobRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// insert registers a new job, evicting the oldest finished job when the
// table is full. It reports false when every retained job is still running
// (the caller sheds with 429); the evicted ID, if any, is returned so the
// caller can drop it from the store too.
func (t *jobTable) insert(j *job, max int) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var evictedID string
	if len(t.byID) >= max {
		evicted := false
		for i, id := range t.order {
			old := t.byID[id]
			old.mu.Lock()
			finished := old.state != jobRunning
			old.mu.Unlock()
			if finished {
				delete(t.byID, id)
				t.order = append(t.order[:i], t.order[i+1:]...)
				evictedID = id
				evicted = true
				break
			}
		}
		if !evicted {
			return "", false
		}
	}
	t.byID[j.id] = j
	t.order = append(t.order, j.id)
	return evictedID, true
}

// remove deletes a job the coordinator could not persist (insert's
// mirror, for the create path's store-failure unwind).
func (t *jobTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byID, id)
	for i, o := range t.order {
		if o == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// list returns the retained jobs in creation order.
func (t *jobTable) list() []*job {
	t.mu.Lock()
	defer t.mu.Unlock()
	jobs := make([]*job, 0, len(t.order))
	for _, id := range t.order {
		jobs = append(jobs, t.byID[id])
	}
	return jobs
}

func (t *jobTable) nextID() (string, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return "job-" + strconv.FormatInt(t.seq, 10), t.seq
}

// cancelInflightOn cancels every in-flight cell attempt currently placed
// on the given (now dead) node, returning how many it re-queued. The cell
// dispatchers observe the canceled context as a failed attempt and re-place
// the cell on a survivor with the dead node excluded.
func (t *jobTable) cancelInflightOn(nodeID string) int64 {
	t.mu.Lock()
	jobs := make([]*job, 0, len(t.byID))
	for _, j := range t.byID {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	var n int64
	for _, j := range jobs {
		j.mu.Lock()
		for _, cl := range j.cells {
			if cl.state == cellRunning && cl.node == nodeID && cl.cancel != nil {
				cl.cancel()
				cl.cancel = nil
				n++
			}
		}
		j.mu.Unlock()
	}
	return n
}

// sweepCSVHeader is the header line every worker cell response starts with.
var sweepCSVHeader = func() []byte {
	var buf bytes.Buffer
	if err := bench.WriteSweepHeader(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}()

// cellKey content-addresses one cell the same way gpserved content-
// addresses a schedule request: over canonical inputs, so the key is
// stable across coordinators and restarts and the cell re-lands on the
// worker whose cache is warm.
func cellKey(m *machine.Config, corpus string, maxLoops int, verify bool) string {
	h := sha256.New()
	h.Write([]byte(machine.Format(m)))
	h.Write([]byte{0})
	h.Write([]byte(corpus))
	h.Write([]byte{0})
	fmt.Fprintf(h, "%d|%t", maxLoops, verify)
	return hex.EncodeToString(h.Sum(nil))
}

// buildJobCells enumerates a resolved sweep request's cells — the create
// path and the journal-recovery rebuild must agree byte-for-byte, which is
// what makes restored fragments verifiable against recomputed keys.
func buildJobCells(req *server.SweepRequest, machines []*machine.Config, corpora []bench.Corpus) ([]*jobCell, error) {
	var cells []*jobCell
	for i, cell := range bench.SweepCells(machines, corpora) {
		body, err := json.Marshal(&server.SweepRequest{
			Machines: []machine.Config{*cell.Machine},
			Corpora:  []string{cell.Corpus.Name},
			MaxLoops: req.MaxLoops,
			Verify:   req.Verify,
		})
		if err != nil {
			return nil, fmt.Errorf("marshal cell: %v", err)
		}
		cells = append(cells, &jobCell{
			index:       i,
			machineName: cell.Machine.Name,
			corpus:      cell.Corpus.Name,
			key:         cellKey(cell.Machine, cell.Corpus.Name, req.MaxLoops, req.Verify),
			reqBody:     body,
			exclude:     make(map[string]bool),
		})
	}
	return cells, nil
}

func (c *Coordinator) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var req server.SweepRequest
	if err := c.readJSON(w, r, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "bad job body: %v", err)
		return
	}
	// Resolve with gpserved's own defaulting and limits so a job the
	// workers would reject is shed here, and so the cell enumeration
	// matches the single-node sweep exactly.
	machines, corpora, err := server.ResolveSweep(&req)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
		return
	}
	// The resolved request is the job's durable record: recovery re-derives
	// the identical cell enumeration from these bytes.
	reqBytes, err := json.Marshal(&req)
	if err != nil {
		c.writeError(w, http.StatusInternalServerError, server.ErrCodeInternal, "marshal request: %v", err)
		return
	}

	id, seq := c.jobs.nextID()
	j := &job{id: id, done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(c.ctx)
	j.cells, err = buildJobCells(&req, machines, corpora)
	if err != nil {
		j.cancel()
		c.writeError(w, http.StatusInternalServerError, server.ErrCodeInternal, "%v", err)
		return
	}
	evicted, ok := c.jobs.insert(j, maxJobs)
	if !ok {
		j.cancel()
		c.writeError(w, http.StatusTooManyRequests, server.ErrCodeJobTableFull, "job table full (%d jobs running)", maxJobs)
		return
	}
	if evicted != "" {
		if err := c.st.DeleteJob(evicted); err != nil {
			c.storeError("delete_job", err)
		}
	}
	// Journal the job before acknowledging it: a 202 is a durability
	// promise when -journal is set.
	if err := c.st.PutJob(j.id, seq, reqBytes); err != nil {
		c.jobs.remove(j.id)
		j.cancel()
		c.writeError(w, http.StatusInternalServerError, server.ErrCodeInternal, "persist job: %v", err)
		return
	}
	c.metrics.jobsCreated.Add(1)
	c.jobs.wg.Add(1)
	go c.runJob(j)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(j.status(false))
}

// handleListJobs answers GET /v1/jobs: every retained job's summary in
// creation order, so operators can find resumable and resumed jobs after
// a coordinator restart without knowing their IDs.
func (c *Coordinator) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := c.jobs.list()
	summaries := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		summaries = append(summaries, j.summary())
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(summaries)
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := c.jobs.get(r.PathValue("id"))
	if j == nil {
		c.writeError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(j.status(r.URL.Query().Get("partial") == "1"))
}

func (c *Coordinator) handleJobCSV(w http.ResponseWriter, r *http.Request) {
	j := c.jobs.get(r.PathValue("id"))
	if j == nil {
		c.writeError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, csv := j.state, j.csv
	j.mu.Unlock()
	switch state {
	case jobRunning:
		// Not done yet: answer 202 with the status body so pollers can use
		// this one endpoint.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(j.status(false))
	case jobFailed:
		c.writeError(w, http.StatusInternalServerError, server.ErrCodeInternal, "job %s failed, see its cell_status", j.id)
	default:
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		_, _ = w.Write(csv)
	}
}

// runJob dispatches the job's cells with bounded concurrency and assembles
// the final CSV when the last cell lands. Cells the journal already proved
// done (a resumed job) are never re-dispatched.
func (c *Coordinator) runJob(j *job) {
	defer c.jobs.wg.Done()
	// Release the job context once every cell has landed, so long-lived
	// coordinators don't accumulate finished jobs' contexts under c.ctx.
	defer j.cancel()
	sem := make(chan struct{}, c.cfg.JobWorkers)
	var wg sync.WaitGroup
	for _, cell := range j.cells {
		j.mu.Lock()
		alreadyDone := cell.state == cellDone
		j.mu.Unlock()
		if alreadyDone {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(cl *jobCell) {
			defer wg.Done()
			defer func() { <-sem }()
			c.runCell(j, cl)
		}(cell)
	}
	wg.Wait()

	// A shutting-down coordinator abandons rather than finalizes: the cells
	// that were canceled mid-flight would otherwise mark the job failed in
	// the journal, destroying exactly the resumability the journal exists
	// for. Leaving the journaled state "running" makes even a graceful
	// restart resume the job.
	if c.ctx.Err() != nil {
		close(j.done)
		return
	}

	j.mu.Lock()
	failed := false
	for _, cl := range j.cells {
		if cl.state != cellDone {
			failed = true
		}
	}
	if failed {
		j.state = jobFailed
	} else {
		j.state = jobDone
		var buf bytes.Buffer
		buf.Write(sweepCSVHeader)
		for _, cl := range j.cells {
			buf.Write(cl.rows)
		}
		j.csv = buf.Bytes()
	}
	j.mu.Unlock()
	if failed {
		c.metrics.jobsFailed.Add(1)
		if err := c.st.SetJobState(j.id, store.JobFailed); err != nil {
			c.storeError("set_job_state", err)
		}
	} else {
		c.metrics.jobsDone.Add(1)
		if err := c.st.SetJobState(j.id, store.JobDone); err != nil {
			c.storeError("set_job_state", err)
		}
	}
	close(j.done)
}

// runCell drives one cell to done or failed: place by bounded-load HRW,
// post to the worker, and on any node-shaped failure walk the placement
// protocol's abort edge and re-place on the next-ranked survivor with the
// failed node excluded. A canceled attempt context is the reconciler
// yanking the cell off a dead node — the same re-place path. The cell
// survives a fully excluded fleet by starting its exclusion list over (the
// fleet may have churned entirely), and waits out an empty fleet rather
// than failing: workers may still be on their way up. The cell's placement
// is durable: each transition is journaled, so a coordinator killed
// mid-cell re-places the cell on the node it was on — including a spill
// target the load bound had moved it to — instead of recomputing the
// placement from scratch.
func (c *Coordinator) runCell(j *job, cl *jobCell) {
	pl := c.newPlacement(cl.key)
	defer pl.drop()
	for {
		if j.ctx.Err() != nil {
			c.finishCell(j, cl, nil, "job canceled")
			return
		}
		j.mu.Lock()
		attempts, exclude, pin := cl.attempts, cloneSet(cl.exclude), j.algoVersion
		j.mu.Unlock()
		if attempts >= c.cfg.MaxCellAttempts {
			c.finishCell(j, cl, nil, fmt.Sprintf("gave up after %d attempts", attempts))
			return
		}
		cands := c.reg.candidates()
		if pin != "" {
			// The job is pinned: never place a cell on a worker running a
			// different algorithm version, even if that means waiting for
			// one of the right generation to come (back) up.
			matching := cands[:0:0]
			for _, cand := range cands {
				if cand.version == pin {
					matching = append(matching, cand)
				}
			}
			if len(matching) < len(cands) {
				c.metrics.versionRefusals.Add(1)
			}
			cands = matching
		}
		// A journaled hint — the node a pre-restart coordinator had this
		// cell on — wins over a fresh placement while it is placeable, so
		// resumed cells land where their work (and cache residency) is.
		var node candidate
		var owner string
		var rank int
		var ok bool
		if hint := c.placementHint(cl.key); hint != "" && !exclude[hint] {
			for _, cand := range cands {
				if cand.id == hint {
					node, owner, ok = cand, cand.id, true
					break
				}
			}
		}
		if !ok {
			node, owner, rank, ok = place(cands, cl.key, exclude, c.cfg.LoadBound)
		}
		if !ok {
			if len(exclude) > 0 {
				j.mu.Lock()
				cl.exclude = make(map[string]bool)
				j.mu.Unlock()
				c.metrics.exclusionsResets.Add(1)
				continue
			}
			// No (version-compatible) workers at all: wait for
			// registrations instead of failing.
			select {
			case <-j.ctx.Done():
			case <-time.After(c.cfg.ReconcileInterval):
			}
			continue
		}
		if node.version != "" {
			// Pin the job to the first placed worker's version; a cell that
			// concurrently placed onto a different version loses the race
			// and re-places on the pinned generation (uncounted — the
			// worker did nothing wrong).
			raced := false
			j.mu.Lock()
			if j.algoVersion == "" {
				j.algoVersion = node.version
			} else if j.algoVersion != node.version {
				raced = true
			}
			j.mu.Unlock()
			if raced {
				c.metrics.versionRefusals.Add(1)
				j.mu.Lock()
				cl.exclude[node.id] = true
				cl.state = cellPending
				j.mu.Unlock()
				continue
			}
		}

		// The attempt deadline itself lives in forward; this context exists
		// so the reconciler can yank the attempt off a dead node early.
		attemptCtx, cancel := context.WithCancel(j.ctx)
		j.mu.Lock()
		cl.state = cellRunning
		cl.node = node.id
		cl.attempts++
		cl.cancel = cancel
		j.mu.Unlock()
		c.bind(node, owner, rank, cl.key)
		pl.prepare(node, rank > 0)

		// Every cell attempt forwards under one deterministic request ID
		// (<job>.cell<index>), so the worker's sweep trace for this cell is
		// retrievable by an ID derivable from the job listing alone — and
		// retried attempts republish under it, newest winning, exactly like
		// singleton failover.
		cellID := fmt.Sprintf("%s.cell%d", j.id, cl.index)
		resp, out, err := c.forward(attemptCtx, node, "/v1/sweep", cl.reqBody, c.cfg.CellTimeout, cellID)
		cancel()
		c.reg.decInflight(node.id)
		j.mu.Lock()
		cl.cancel = nil
		j.mu.Unlock()

		switch {
		case err != nil:
			// Transport error, reconciler cancel or timeout: node-shaped.
			c.reg.reportFailure(node.id)
			pl.abort()
			c.requeueCell(j, cl, node.id, err.Error())
		case resp.StatusCode == http.StatusOK:
			rows, ok := cellRows(out)
			if !ok {
				// A 200 whose CSV is truncated or carries an in-band ERROR
				// row: the worker failed mid-stream.
				c.reg.reportFailure(node.id)
				pl.abort()
				c.requeueCell(j, cl, node.id, "truncated or error CSV")
				continue
			}
			if v := c.reg.versionOf(node.id); v != node.version {
				// The worker changed algorithm generation mid-attempt (a
				// restart under the same ID): its fragment may be from
				// either side of the change, so recompute rather than risk
				// a mixed-version CSV. Uncounted, like the pin race.
				c.metrics.versionRefusals.Add(1)
				pl.abort()
				j.mu.Lock()
				cl.attempts--
				cl.exclude[node.id] = true
				cl.state = cellPending
				j.mu.Unlock()
				continue
			}
			pl.ready()
			c.finishCell(j, cl, rows, "")
			return
		case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode == http.StatusServiceUnavailable:
			// Saturated or draining, not sick: another worker takes the
			// cell. Load must not burn the attempt budget (a transiently
			// full fleet would fail the job in milliseconds), so the
			// attempt is uncounted and the retry waits a beat — the same
			// policy as an empty fleet. Progress is still guaranteed: a
			// canceled job context exits above, and actual failures still
			// count attempts.
			c.metrics.retries.Add(1)
			pl.abort()
			j.mu.Lock()
			cl.attempts--
			cl.exclude[node.id] = true
			cl.state = cellPending
			j.mu.Unlock()
			select {
			case <-j.ctx.Done():
			case <-time.After(c.cfg.ReconcileInterval):
			}
		case resp.StatusCode >= 500:
			c.reg.reportFailure(node.id)
			pl.abort()
			c.requeueCell(j, cl, node.id, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, firstLine(out)))
		default:
			// 4xx: the cell itself is bad; every worker would agree.
			c.finishCell(j, cl, nil, fmt.Sprintf("worker %s rejected cell: %d %s", node.id, resp.StatusCode, firstLine(out)))
			return
		}
	}
}

// requeueCell walks a cell's failover edge after a node-shaped failure,
// excluding the failed node, and emits the one structured event that
// attributes the retry: which cell, which node, which attempt, why.
func (c *Coordinator) requeueCell(j *job, cl *jobCell, nodeID, reason string) {
	c.metrics.failovers.Add(1)
	c.metrics.cellsRequeued.Add(1)
	j.mu.Lock()
	cl.exclude[nodeID] = true
	cl.state = cellPending
	attempt := cl.attempts
	j.mu.Unlock()
	c.log.Warn("cell attempt failed, requeueing",
		"request", fmt.Sprintf("%s.cell%d", j.id, cl.index),
		"job", j.id, "cell", cl.index, "node", nodeID,
		"attempt", attempt, "reason", reason)
}

// finishCell terminates a cell: done with its CSV fragment, or failed with
// a reason. Done fragments are journaled — content-addressed by the cell
// key — so a restarted coordinator restores them instead of recomputing;
// failures are runtime judgment calls ("gave up after N attempts", "job
// canceled") that a fresh coordinator should get to re-make, so they are
// deliberately not persisted.
func (c *Coordinator) finishCell(j *job, cl *jobCell, rows []byte, failReason string) {
	j.mu.Lock()
	pin := j.algoVersion
	if failReason != "" {
		cl.state = cellFailed
		cl.err = failReason
	} else {
		cl.state = cellDone
		cl.rows = rows
	}
	j.mu.Unlock()
	if failReason == "" {
		c.metrics.cellsDone.Add(1)
		// The fragment is journaled with the job's pinned version, so a
		// restarted coordinator can tell fragments of different scheduler
		// generations apart and never mixes them into one resumed CSV.
		if err := c.st.FinishCell(j.id, store.CellRecord{Index: cl.index, Key: cl.key, Rows: rows, AlgoVersion: pin}); err != nil {
			c.storeError("finish_cell", err)
		}
	}
}

// cellRows validates one worker cell response and strips the header: it
// must start with the sweep header and contain no in-band ERROR row.
func cellRows(body []byte) ([]byte, bool) {
	if !bytes.HasPrefix(body, sweepCSVHeader) {
		return nil, false
	}
	rows := body[len(sweepCSVHeader):]
	if len(rows) == 0 || rows[len(rows)-1] != '\n' {
		return nil, false // truncated mid-row
	}
	if bytes.HasPrefix(rows, []byte("ERROR,")) || bytes.Contains(rows, []byte("\nERROR,")) {
		return nil, false
	}
	return rows, true
}

func cloneSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
