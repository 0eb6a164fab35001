package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// fetchTrace GETs one published trace by request ID from a daemon's debug
// endpoint, reporting ok=false on a 404 (not yet published / evicted). The
// ID is path-escaped: batch loop IDs carry a '#'.
func fetchTrace(t *testing.T, base, id string) (obs.Trace, bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/debug/traces/" + url.PathEscape(id))
	if err != nil {
		t.Fatalf("GET trace %s: %v", id, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return obs.Trace{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace %s: %d %s", id, resp.StatusCode, body)
	}
	var tr obs.Trace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace %s: %v in %s", id, err, body)
	}
	return tr, true
}

func postScheduleWithID(t *testing.T, base, id string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/schedule: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func phaseNames(tr obs.Trace) []string {
	names := make([]string, 0, len(tr.Phases()))
	for _, p := range tr.Phases() {
		names = append(names, p.Name)
	}
	return names
}

// TestRequestIDStitchesCoordinatorAndWorker pins the tentpole contract: one
// client-supplied X-Request-Id identifies the request end to end — echoed on
// the response, filed in the coordinator's trace ring with the placement
// phases, and filed in the serving worker's ring with the scheduler phases.
func TestRequestIDStitchesCoordinatorAndWorker(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	workers := map[string]*testWorker{
		"wA": startWorker(t, base, "wA"),
		"wB": startWorker(t, base, "wB"),
	}
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	const id = "deadbeef01234567"
	resp, out := postScheduleWithID(t, base, id, scheduleBody(t, "stitch"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != id {
		t.Fatalf("response %s = %q, want %q", obs.RequestIDHeader, got, id)
	}
	if resp.Header.Get("X-Phase-Timing") == "" {
		t.Fatal("response missing X-Phase-Timing")
	}

	ctr, ok := fetchTrace(t, base, id)
	if !ok {
		t.Fatalf("coordinator has no trace for %s", id)
	}
	if ctr.Op != "proxy-schedule" || ctr.Outcome != "owner" {
		t.Fatalf("coordinator trace op=%q outcome=%q, want proxy-schedule/owner", ctr.Op, ctr.Outcome)
	}
	names := phaseNames(ctr)
	for _, want := range []string{"admission", "place", "proxy"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("coordinator trace phases %v missing %q", names, want)
		}
	}

	serving := resp.Header.Get("X-Node")
	w, ok := workers[serving]
	if !ok {
		t.Fatalf("unknown serving node %q", serving)
	}
	if ctr.Node != serving {
		t.Fatalf("coordinator trace node %q, response X-Node %q", ctr.Node, serving)
	}
	wtr, ok := fetchTrace(t, w.endpoint, id)
	if !ok {
		t.Fatalf("worker %s has no trace for %s", serving, id)
	}
	if wtr.Op != "schedule" {
		t.Fatalf("worker trace op = %q, want schedule", wtr.Op)
	}
	if wtr.ID != ctr.ID {
		t.Fatalf("trace IDs diverge: worker %q coordinator %q", wtr.ID, ctr.ID)
	}
}

// TestRequestIDSurvivesFailover pins that failover is invisible to the
// request's identity: the first-ranked worker eats the connection, the
// retry serves from the survivor, and both the coordinator's trace (now
// outcome=failover, with one proxy phase per attempt) and the survivor's
// trace file under the original ID.
func TestRequestIDSurvivesFailover(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	workers := map[string]*testWorker{
		"wA": startWorker(t, base, "wA"),
		"wB": startWorker(t, base, "wB"),
	}
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	body := scheduleBody(t, "failover-id")
	key, err := server.ScheduleCacheKey(body)
	if err != nil {
		t.Fatal(err)
	}
	predicted, _, _, ok := place(coord.reg.candidates(), key, nil, 0)
	if !ok {
		t.Fatal("no placement candidate")
	}
	workers[predicted.id].chaos.armKillSchedule(1)

	const id = "cafebabe89abcdef"
	resp, out := postScheduleWithID(t, base, id, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != id {
		t.Fatalf("failover changed the request ID: %q", got)
	}
	serving := resp.Header.Get("X-Node")
	if serving == predicted.id {
		t.Fatalf("served by the killed worker %s", serving)
	}

	ctr, ok := fetchTrace(t, base, id)
	if !ok {
		t.Fatalf("coordinator has no trace for %s", id)
	}
	if ctr.Outcome != "failover" {
		t.Fatalf("coordinator trace outcome = %q, want failover", ctr.Outcome)
	}
	proxies := 0
	for _, p := range ctr.Phases() {
		if p.Name == "proxy" {
			proxies++
		}
	}
	if proxies < 2 {
		t.Fatalf("failover trace has %d proxy phases, want >= 2:\n%v", proxies, ctr.Phases())
	}
	wtr, ok := fetchTrace(t, workers[serving].endpoint, id)
	if !ok {
		t.Fatalf("surviving worker %s has no trace for %s", serving, id)
	}
	if wtr.ID != id {
		t.Fatalf("worker trace ID = %q, want %q", wtr.ID, id)
	}
}

// TestBatchLoopRequestIDSuffixes pins the fan-out identity scheme: each
// sub-batch forwards under <envelope-id>#<index of its first loop>,
// deterministically, so every worker-side trace of a batch is retrievable
// from the envelope ID alone, and cutting an ID at '#' (how perfledger
// stitches worker spans to the envelope) gives the envelope ID back. The
// coordinator's trace keeps one place note per loop and one proxy note per
// sub-batch naming its node and loops.
func TestBatchLoopRequestIDSuffixes(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	workers := map[string]*testWorker{
		"wA": startWorker(t, base, "wA"),
		"wB": startWorker(t, base, "wB"),
	}
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	const id = "feedface00000000"
	// The sub-batches an idle fleet forms: the loops grouped by HRW owner,
	// each group named by its first loop. The test needs both workers, and
	// the keys carry the algorithm version, so the loops are the first six
	// consecutive names of a fixed pool whose keys map to both.
	pool := []string{"obsa", "obsb", "obsc", "obsd", "obse", "obsf", "obsg", "obsh", "obsi", "obsj", "obsk", "obsl"}
	var (
		names   []string
		body    []byte
		groups  map[int]string // first loop -> node
		loopsOf map[string][]string
	)
	for start := 0; start+6 <= len(pool) && len(groups) != 2; start++ {
		names = pool[start : start+6]
		body = batchBody(t, names, false)
		items, err := server.BatchItems(body)
		if err != nil {
			t.Fatal(err)
		}
		groups, loopsOf = map[int]string{}, map[string][]string{}
		for i, it := range items {
			owner, _, _, _ := place(coord.reg.candidates(), it.Key, nil, 0)
			if len(loopsOf[owner.id]) == 0 {
				groups[i] = owner.id
			}
			loopsOf[owner.id] = append(loopsOf[owner.id], strconv.Itoa(i))
		}
	}
	if len(groups) != 2 {
		t.Fatalf("no six consecutive loops of %v have two owners (last: %v); the test needs both workers", pool, loopsOf)
	}

	req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != id {
		t.Fatalf("batch response ID = %q, want %q", got, id)
	}

	// The envelope trace files on the coordinator under the bare ID...
	ctr, ok := fetchTrace(t, base, id)
	if !ok {
		t.Fatalf("coordinator has no batch trace for %s", id)
	}
	if ctr.Op != "proxy-batch" {
		t.Fatalf("coordinator batch trace op = %q", ctr.Op)
	}
	var places int
	var proxies []string
	for _, p := range ctr.Phases() {
		switch p.Name {
		case "place":
			places++
		case "proxy":
			proxies = append(proxies, p.Note)
		}
	}
	if places != len(names) {
		t.Errorf("coordinator trace has %d place notes, want one per loop (%d)", places, len(names))
	}
	var wantProxies []string
	for _, first := range slices.Sorted(maps.Keys(groups)) {
		n := groups[first]
		wantProxies = append(wantProxies, fmt.Sprintf("node=%s loops=%s http-200", n, strings.Join(loopsOf[n], ",")))
	}
	if strings.Join(proxies, "|") != strings.Join(wantProxies, "|") {
		t.Errorf("proxy notes %q, want %q", proxies, wantProxies)
	}

	// ...and each sub-batch's worker-side trace under #<first loop>, on
	// its node alone, parsing that sub-batch's loops.
	for first, node := range groups {
		subID := obs.SuffixID(id, first)
		if want := fmt.Sprintf("%s#%d", id, first); subID != want {
			t.Fatalf("SuffixID(%q, %d) = %q, want %q", id, first, subID, want)
		}
		if env, _, _ := strings.Cut(subID, "#"); env != id {
			t.Fatalf("sub-batch ID %q does not cut back to the envelope ID", subID)
		}
		for wid, w := range workers {
			wtr, ok := fetchTrace(t, w.endpoint, subID)
			if ok != (wid == node) {
				t.Fatalf("sub-batch trace %s on %s: found=%t, want it on %s alone", subID, wid, ok, node)
			}
			if !ok {
				continue
			}
			if wtr.Op != "batch" {
				t.Fatalf("sub-batch %s trace op = %q", subID, wtr.Op)
			}
			want := fmt.Sprintf("loops=%d", len(loopsOf[node]))
			if !slices.ContainsFunc(wtr.Phases(), func(p obs.Phase) bool { return p.Name == "parse" && p.Note == want }) {
				t.Fatalf("sub-batch %s trace has no parse note %q: %+v", subID, want, wtr.Phases())
			}
		}
	}
}

// TestCoordinatorMetricsLint scrapes a traffic-warmed coordinator and holds
// /metrics to the fleet naming contract: every family is a counter
// (*_total), an allowlisted gauge, or a complete histogram triple — and the
// duration histogram actually renders with its endpoint/outcome labels, and
// the batch counters with the batch that warmed them.
func TestCoordinatorMetricsLint(t *testing.T) {
	coord, base := startCoordinator(t, testConfig())
	startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	for i := 0; i < 4; i++ {
		resp, out := postSchedule(t, base, scheduleBody(t, fmt.Sprintf("lint%d", i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule %d: %d %s", i, resp.StatusCode, out)
		}
	}
	if resp, out := postBatch(t, base, batchBody(t, []string{"lintb0", "lintb1"}, false)); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}
	if n := coord.metrics.batchForwards.Load(); n < 1 || n > 2 {
		t.Fatalf("a 2-loop batch on 2 idle workers made %d forwards, want 1 or 2", n)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	if problems := obs.CheckMetrics(text, coordGauges); len(problems) != 0 {
		t.Fatalf("metrics lint:\n%s", strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		`gpcoordd_request_duration_seconds_bucket{endpoint="schedule",outcome="owner",le="+Inf"}`,
		`gpcoordd_request_duration_seconds_sum{endpoint="schedule",outcome="owner"}`,
		`gpcoordd_request_duration_seconds_count{endpoint="schedule",outcome="owner"}`,
		`gpcoordd_request_duration_seconds_count{endpoint="batch",outcome="owner"} 2`,
		"gpcoordd_batch_requests_total 1\n",
		"gpcoordd_batch_loops_total 2\n",
		fmt.Sprintf("gpcoordd_batch_forwards_total %d\n", coord.metrics.batchForwards.Load()),
		"gpcoordd_latency_p50_seconds",
		"gpcoordd_latency_p99_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The unlabeled spills total must render before any key_class series:
	// the smoke script parses it positionally with a prefix match.
	unlabeled := strings.Index(text, "gpcoordd_spills_total ")
	if unlabeled < 0 {
		t.Fatal("metrics missing unlabeled gpcoordd_spills_total")
	}
	if labeled := strings.Index(text, "gpcoordd_spills_total{"); labeled >= 0 && labeled < unlabeled {
		t.Fatal("labeled gpcoordd_spills_total renders before the unlabeled total")
	}
}

// TestSpillAttribution drives a hot key through a tiny load bound until the
// owner spills, then checks all three attribution surfaces: the key_class
// spill series, the per-node spill-out/spill-in counters on /metrics, and
// the SpillOut/SpillIn fields of /v1/fleet/nodes.
func TestSpillAttribution(t *testing.T) {
	cfg := testConfig()
	cfg.LoadBound = 1.05
	coord, base := startCoordinator(t, cfg)
	startWorker(t, base, "wA")
	startWorker(t, base, "wB")
	waitForStates(t, coord, map[string]string{"wA": "ready", "wB": "ready"})

	body := scheduleBody(t, "hotkey")
	key, err := server.ScheduleCacheKey(body)
	if err != nil {
		t.Fatal(err)
	}

	// Hold one in-flight slot on the owner so a concurrent identical request
	// crosses the bound and spills deterministically.
	owner, _, _, ok := place(coord.reg.candidates(), key, nil, 0)
	if !ok {
		t.Fatal("no owner")
	}
	coord.reg.incInflight(owner.id)
	coord.reg.incInflight(owner.id)
	defer coord.reg.decInflight(owner.id)
	defer coord.reg.decInflight(owner.id)

	resp, out := postSchedule(t, base, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Node"); got == owner.id {
		t.Fatalf("expected a spill off %s, served by owner", owner.id)
	}

	resp2, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	mb, _ := io.ReadAll(resp2.Body)
	text := string(mb)
	wantClass := fmt.Sprintf("gpcoordd_spills_total{key_class=%q}", keyClass(key))
	for _, want := range []string{
		"gpcoordd_spills_total 1\n", // the unlabeled total perfledger reads
		wantClass,
		fmt.Sprintf("gpcoordd_node_spill_out_total{node=%q} 1", owner.id),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	var nodes []NodeInfo
	resp3, err := http.Get(base + "/v1/fleet/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	var spillOut, spillIn int64
	for _, n := range nodes {
		spillOut += n.SpillOut
		spillIn += n.SpillIn
	}
	if spillOut != 1 || spillIn != 1 {
		t.Fatalf("fleet spill_out=%d spill_in=%d, want 1/1 (%+v)", spillOut, spillIn, nodes)
	}
}
