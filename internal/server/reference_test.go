package server

// The request edge that parseScheduleRequest, parseBatch and cacheKey
// replaced, kept as a reference: every loop re-decoded from its synthesized
// singleton body with its own machine parse, and the key streamed through
// fmt into the hash. The fuzz targets below require the same keys, verdicts
// and error texts from ScheduleCacheKey and BatchItems, and the same jobs
// from parseScheduleRequest and parseBatch.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ddg"
	"repro/internal/ddgio"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// refParseScheduleRequest is the reference parseScheduleRequest.
func refParseScheduleRequest(body []byte) (*scheduleJob, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req scheduleRequestWire
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}

	var g *ddg.Graph
	haveLoop := rawPresent(req.Loop)
	switch {
	case haveLoop && req.LoopText != "":
		return nil, fmt.Errorf("give exactly one of loop and loop_text, not both")
	case haveLoop:
		jl := new(ddgio.JSONLoop)
		if err := json.Unmarshal(req.Loop, jl); err != nil {
			return nil, fmt.Errorf("bad loop: %v", err)
		}
		var err error
		g, err = ddgio.FromJSON(jl)
		if err != nil {
			return nil, err
		}
	case req.LoopText != "":
		loops, err := ddgio.Read(strings.NewReader(req.LoopText))
		if err != nil {
			return nil, err
		}
		if len(loops) != 1 {
			return nil, fmt.Errorf("loop_text must contain exactly one loop, got %d", len(loops))
		}
		g = loops[0]
	default:
		return nil, fmt.Errorf("missing loop: give loop (JSON) or loop_text (ddgio text)")
	}

	var m *machine.Config
	haveMachine := rawPresent(req.Machine)
	switch {
	case haveMachine && (req.Clusters != 0 || req.Regs != 0 || req.NBus != 0 || req.LatBus != 0):
		return nil, fmt.Errorf("give either machine or the clusters/regs/nbus/latbus grid, not both")
	case haveMachine:
		m = new(machine.Config)
		if err := json.Unmarshal(req.Machine, m); err != nil {
			return nil, fmt.Errorf("bad machine: %v", err)
		}
	case req.Clusters == 1:
		m = machine.NewUnified(defaultRegs(req.Regs))
	case req.Clusters != 0:
		var err error
		m, err = machine.NewClustered(req.Clusters, defaultRegs(req.Regs), defaultOne(req.NBus), defaultOne(req.LatBus))
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("missing machine: give machine (description text) or clusters")
	}
	// The grid constructors check divisibility, not positivity (e.g. -8
	// registers split evenly); Parse validates internally, the grid paths
	// must too, so nothing invalid gets past admission.
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := checkServedMachine(m); err != nil {
		return nil, err
	}

	alg, scheme, err := parseScheme(req.Scheme)
	if err != nil {
		return nil, err
	}

	// Cheap admission guards, O(nodes + edges) — everything on the handler
	// goroutine must stay linear; the expensive MII analysis runs behind
	// the worker pool (see admissionCheck). The scheduler's working-set
	// size scales with loop size and initiation interval (reservation
	// tables allocate O(units·II) per cluster), so an unauthenticated
	// request must not drive either unbounded: a loop needing a unit kind
	// the machine lacks has an unbounded resource MII, and a single huge
	// edge latency drives the recurrence MII (and every schedule-time
	// buffer) to its own magnitude.
	if g.N() > maxServedNodes {
		return nil, fmt.Errorf("loop has %d nodes, limit %d", g.N(), maxServedNodes)
	}
	if len(g.Edges) > maxServedEdges {
		return nil, fmt.Errorf("loop has %d edges, limit %d", len(g.Edges), maxServedEdges)
	}
	if g.Niter > maxServedNiter {
		return nil, fmt.Errorf("trip count %d exceeds limit %d", g.Niter, maxServedNiter)
	}
	for i, e := range g.Edges {
		if e.Lat > maxServedLat {
			return nil, fmt.Errorf("edge %d latency %d exceeds limit %d", i, e.Lat, maxServedLat)
		}
		if e.Dist > maxServedDist {
			return nil, fmt.Errorf("edge %d distance %d exceeds limit %d", i, e.Dist, maxServedDist)
		}
	}
	counts := g.OpCounts()
	for k := 0; k < isa.NumUnitKinds; k++ {
		if counts[k] > 0 && m.TotalUnits(isa.UnitKind(k)) == 0 {
			return nil, fmt.Errorf("machine %s has no %v units but the loop needs %d", m.Name, isa.UnitKind(k), counts[k])
		}
	}
	return &scheduleJob{g: g, m: m, alg: alg, scheme: scheme}, nil
}

// refCacheKey is the reference cacheKey.
func refCacheKey(j *scheduleJob, salt string) string {
	h := sha256.New()
	h.Write([]byte(salt))
	h.Write([]byte{0})
	h.Write([]byte(machine.Format(j.m)))
	h.Write([]byte{0})
	h.Write([]byte(j.scheme))
	h.Write([]byte{0})
	_ = ddgio.Write(h, j.g) // writes to a hash never fail
	return hex.EncodeToString(h.Sum(nil))
}

// refScheduleCacheKey is the reference ScheduleCacheKey.
func refScheduleCacheKey(body []byte) (string, error) {
	job, err := refParseScheduleRequest(body)
	if err != nil {
		return "", err
	}
	return refCacheKey(job, keySalt(schedule.AlgoVersion, 0)), nil
}

// refParseBatch is the reference parseBatch.
func refParseBatch(body []byte) ([]batchItem, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req batchRequestWire
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	if len(req.Loops) == 0 {
		return nil, fmt.Errorf("batch has no loops")
	}
	if len(req.Loops) > maxBatchLoops {
		return nil, fmt.Errorf("batch has %d loops, limit %d", len(req.Loops), maxBatchLoops)
	}

	items := make([]batchItem, len(req.Loops))
	nodes, edges := 0, 0
	for i, l := range req.Loops {
		single := scheduleRequestWire{
			Loop:     l.Loop,
			LoopText: l.LoopText,
			Machine:  req.Machine,
			Clusters: req.Clusters,
			Regs:     req.Regs,
			NBus:     req.NBus,
			LatBus:   req.LatBus,
			Scheme:   req.Scheme,
		}
		b, err := json.Marshal(single)
		if err != nil {
			return nil, fmt.Errorf("loops[%d]: %v", i, err)
		}
		items[i].job, items[i].err = refParseScheduleRequest(b)
		if j := items[i].job; j != nil {
			nodes += j.g.N()
			edges += len(j.g.Edges)
		}
	}
	if nodes > maxBatchNodes {
		return nil, fmt.Errorf("batch carries %d nodes, limit %d", nodes, maxBatchNodes)
	}
	if edges > maxBatchEdges {
		return nil, fmt.Errorf("batch carries %d edges, limit %d", edges, maxBatchEdges)
	}
	return items, nil
}

// refBatchItems is the reference BatchItems.
func refBatchItems(body []byte) ([]BatchItem, error) {
	items, err := refParseBatch(body)
	if err != nil {
		return nil, err
	}
	out := make([]BatchItem, len(items))
	for i := range items {
		out[i] = BatchItem{Err: items[i].err}
		if items[i].job != nil {
			out[i].Key = refCacheKey(items[i].job, keySalt(schedule.AlgoVersion, 0))
		}
	}
	return out, nil
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameJob reports whether two parses admitted the same job: the loop, the
// machine and the scheme.
func sameJob(a, b *scheduleJob) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.g.Name == b.g.Name && a.g.Niter == b.g.Niter &&
		reflect.DeepEqual(a.g.Nodes, b.g.Nodes) && reflect.DeepEqual(a.g.Edges, b.g.Edges) &&
		reflect.DeepEqual(a.m, b.m) && a.alg == b.alg && a.scheme == b.scheme
}

// edgeSeedLoops are loop halves of a request body for the edge fuzz seeds:
// text, JSON, with names the key canonicalizes, and broken in each way the
// loop parse reports.
var edgeSeedLoops = []string{
	`"loop_text":"loop t 10\nnode 0 IntALU\n"`,
	`"loop_text":"loop t 10\nnode 0 Store\nedge 0 0 1 1 data\n"`,
	`"loop_text":"loop broken"`,
	`"loop_text":"loop a 1\nnode 0 Load\nloop b 1\nnode 0 Load\n"`,
	`"loop_text":"loop f 10\nnode 0 FPMul\nnode 1 FPAdd\nedge 0 1 4 0 data\n"`,
	`"loop":{"name":"a b","niter":5,"nodes":[{"op":"Load","name":"x y"},{"op":"IntALU"}],"edges":[{"from":0,"to":1,"lat":2}]}`,
	`"loop":{"niter":5,"nodes":[{"op":"load"}],"extra":1}`,
	`"loop":{"name":"x","niter":"5","nodes":[]}`,
	`"loop":null`,
	`"loop":{"name":"x","niter":5,"nodes":[{"op":"Load"}]},"loop_text":"loop t 1\nnode 0 Load\n"`,
	`"loop_text":"loop big 10\nnode 0 Load\nedge 0 0 99999 1 mem\n"`,
}

// edgeSeedMachines are machine halves of a request body for the edge fuzz
// seeds: grid, text, and invalid in each way machine resolution reports,
// including a text that parses but exceeds the served size limits.
var edgeSeedMachines = []string{
	`"clusters":2`,
	`"clusters":4,"regs":64,"nbus":1,"latbus":1`,
	`"clusters":1,"regs":-8`,
	`"clusters":3`,
	`"machine":"machine m\ncluster 1 1 1 8\n"`,
	`"machine":"machine m\ncluster 1 0 1 8\n"`,
	`"machine":"machine h\ncluster 3 1 2 24\ncluster 1 3 2 40\ninterconnect bus 1 1 blocking\n","scheme":"uracam"`,
	`"machine":"machine m\ncluster 1 1 1 8\n","clusters":2`,
	`"machine":"machine x\ncluster 1 1 1\n"`,
	`"machine":"machine w\ncluster 65 1 1 8\n"`,
	`"machine":7`,
	`"scheme":"GP"`,
}

// FuzzScheduleCacheKeyMatchesReference runs ScheduleCacheKey and the
// reference on one body: the same key or the same error text. The parse
// both daemons run also admits the same job as the reference's.
func FuzzScheduleCacheKeyMatchesReference(f *testing.F) {
	single, _ := edgeBodies(f)
	f.Add(single)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{{{`))
	f.Add([]byte(`{"loop_text":"loop t 1\nnode 0 Load\n","clusters":2} trailing`))
	for i, l := range edgeSeedLoops {
		for j, m := range edgeSeedMachines {
			if (i+j)%3 == 0 {
				f.Add([]byte("{" + l + "," + m + `,"scheme":"Fixed"}`))
			} else {
				f.Add([]byte("{" + l + "," + m + "}"))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		key, err := ScheduleCacheKey(data)
		want, werr := refScheduleCacheKey(data)
		if key != want || errText(err) != errText(werr) {
			t.Fatalf("ScheduleCacheKey: %q, %v\nreference:        %q, %v", key, err, want, werr)
		}
		job, err := parseScheduleRequest(data)
		ref, werr := refParseScheduleRequest(data)
		if errText(err) != errText(werr) || !sameJob(job, ref) {
			t.Fatalf("parse: %+v, %v\nreference: %+v, %v", job, err, ref, werr)
		}
	})
}

// FuzzBatchItemsMatchesReference runs BatchItems and the reference on one
// envelope: the same envelope error text, or per loop the same key and
// error text. The worker's parseBatch also gives each loop the reference's
// job. Then the two halves
// of the coordinator's fan-out: every sub-batch AppendSubBatch encodes
// admits its loops with the keys and errors they have in the whole
// envelope, and SplitBatch returns exactly the elements a worker framed.
func FuzzBatchItemsMatchesReference(f *testing.F) {
	_, batch := edgeBodies(f)
	f.Add(batch)
	f.Add([]byte(`{"clusters":2,"loops":[{"loop_text":"loop t 10\nnode 0 IntALU\n"}]}`))
	f.Add([]byte(`{"machine":"machine m\ncluster 1 1 1 8\n","scheme":"Fixed","loops":[{"loop":{"name":"x","niter":5,"nodes":[{"op":"Load"}]}},{"loop_text":"loop broken"}]}`))
	f.Add([]byte(`{"clusters":2,"loops":[]}`))
	f.Add([]byte(`{"loops":1}`))
	f.Add([]byte(`{{{`))
	f.Add([]byte(`{"clusters":2,"loops":[null,{"loop_text":"loop t 1\nnode 0 Load\n"}]}`))
	// The first loop parses but fails admission (no FP unit); the second,
	// on the same machine, is still admitted.
	f.Add([]byte(`{"machine":"machine m\ncluster 1 0 1 8\n","loops":[{` + edgeSeedLoops[4] + `},{` + edgeSeedLoops[0] + `}]}`))
	// Duplicate and case-folded keys, and escapes the encoder must redo.
	f.Add([]byte(`{"clusters":2,"Scheme":"gp","loops":[{"loop_text":"x","LOOP_TEXT":"loop \"q\\\u0001\" 3\r\nnode 0 Load\n"},{"loop":{"name":"a<b>","niter":2,"nodes":[{"op":"Load"}]}}]}`))
	for j, m := range edgeSeedMachines {
		var loops []string
		for i := j; i < j+4; i++ {
			loops = append(loops, "{"+edgeSeedLoops[i%len(edgeSeedLoops)]+"}")
		}
		f.Add([]byte("{" + m + `,"loops":[` + strings.Join(loops, ",") + "]}"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := BatchItems(data)
		want, werr := refBatchItems(data)
		if errText(err) != errText(werr) || len(items) != len(want) {
			t.Fatalf("BatchItems: %d items, %v\nreference:  %d items, %v", len(items), err, len(want), werr)
		}
		for i := range items {
			if items[i].Key != want[i].Key || errText(items[i].Err) != errText(want[i].Err) {
				t.Fatalf("loop %d: %q %v\nreference: %q %v", i, items[i].Key, items[i].Err, want[i].Key, want[i].Err)
			}
		}
		_, got, err := parseBatch(data)
		ref, werr := refParseBatch(data)
		if errText(err) != errText(werr) || len(got) != len(ref) {
			t.Fatalf("parseBatch: %d items, %v\nreference:  %d items, %v", len(got), err, len(ref), werr)
		}
		for i := range got {
			if errText(got[i].err) != errText(ref[i].err) || !sameJob(got[i].job, ref[i].job) {
				t.Fatalf("loop %d: %+v, %v\nreference: %+v, %v", i, got[i].job, got[i].err, ref[i].job, ref[i].err)
			}
		}
		if err != nil {
			return
		}
		for _, idx := range subBatchIndices(len(items)) {
			checkSubBatch(t, items, idx)
		}
		checkSplitRoundTrip(t, items, data)
	})
}

// subBatchIndices returns the loop subsets the fuzz encodes as sub-batches
// of an n-loop envelope: all of them, each alone, every other one from each
// end, and all of them reversed.
func subBatchIndices(n int) [][]int {
	var out [][]int
	all, rev := make([]int, n), make([]int, n)
	for i := range all {
		all[i], rev[i] = i, n-1-i
		out = append(out, []int{i})
	}
	out = append(out, all, rev)
	for start := 0; start < 2 && start < n; start++ {
		var every []int
		for i := start; i < n; i += 2 {
			every = append(every, i)
		}
		out = append(out, every)
	}
	return out
}

// checkSubBatch encodes the loops idx of an admitted envelope as one
// sub-batch and requires the coordinator's and the worker's parse of it to
// give each loop the key and error text it has in the whole envelope.
func checkSubBatch(t *testing.T, items []BatchItem, idx []int) {
	t.Helper()
	sub := AppendSubBatch(nil, items, idx)
	if !json.Valid(sub) {
		t.Fatalf("sub-batch %v is not JSON: %s", idx, sub)
	}
	subItems, err := BatchItems(sub)
	if err != nil || len(subItems) != len(idx) {
		t.Fatalf("sub-batch %v: %d items, %v\n%s", idx, len(subItems), err, sub)
	}
	_, worker, err := parseBatch(sub)
	if err != nil {
		t.Fatalf("worker rejects sub-batch %v: %v", idx, err)
	}
	salt := keySalt(schedule.AlgoVersion, 0)
	for k, i := range idx {
		want := items[i]
		if subItems[k].Key != want.Key || errText(subItems[k].Err) != errText(want.Err) {
			t.Fatalf("sub-batch %v loop %d: %q %v\nwhole envelope: %q %v", idx, i, subItems[k].Key, subItems[k].Err, want.Key, want.Err)
		}
		wkey := ""
		if worker[k].job != nil {
			wkey = worker[k].job.cacheKey(salt)
		}
		if wkey != want.Key || errText(worker[k].err) != errText(want.Err) {
			t.Fatalf("worker's sub-batch %v loop %d: %q %v\nwhole envelope: %q %v", idx, i, wkey, worker[k].err, want.Key, want.Err)
		}
	}
	if again := AppendSubBatch(nil, items, idx); !bytes.Equal(again, sub) {
		t.Fatalf("sub-batch %v encodes two ways:\n%s\n%s", idx, sub, again)
	}
}

// checkSplitRoundTrip frames elements of every shape a worker writes —
// per-loop admission errors, internal errors and indented response bodies
// carrying the fuzz input's text — as a worker does, and requires
// SplitBatch to return exactly them, InternalElement to pick out exactly
// the internal ones, and a cut-short or mis-counted reply to be refused.
func checkSplitRoundTrip(t *testing.T, items []BatchItem, data []byte) {
	t.Helper()
	var elems [][]byte
	var internal []bool
	for i, it := range items {
		if it.Err != nil {
			elems, internal = append(elems, MarshalError(ErrCodeBadRequest, it.Err.Error())), append(internal, false)
		}
		elems, internal = append(elems, MarshalError(ErrCodeInternal, string(data[:i%len(data)]))), append(internal, true)
		var body bytes.Buffer
		resp := &ScheduleResponse{Loop: string(data), Machine: it.Key, Time: []int{i, len(data)}, MaxLive: []int{}, Verified: true}
		if err := encodeScheduleResponse(&body, resp); err != nil {
			t.Fatal(err)
		}
		elems, internal = append(elems, trimElement(body.Bytes())), append(internal, false)
	}
	framed := []byte(BatchOpen + string(bytes.Join(elems, []byte(BatchSep))) + BatchClose)
	split, err := SplitBatch(framed, len(elems))
	if err != nil {
		t.Fatalf("SplitBatch of a framed reply: %v\n%s", err, framed)
	}
	for i := range elems {
		if !bytes.Equal(split[i], elems[i]) {
			t.Fatalf("element %d split as\n%s\nwant\n%s", i, split[i], elems[i])
		}
		if InternalElement(split[i]) != internal[i] {
			t.Fatalf("element %d: InternalElement = %t, want %t:\n%s", i, !internal[i], internal[i], split[i])
		}
	}
	for _, bad := range [][]byte{framed[:len(framed)-1], framed[:len(framed)/2], framed[1:]} {
		if _, err := SplitBatch(bad, len(elems)); err == nil {
			t.Fatalf("SplitBatch accepted a cut-short reply:\n%s", bad)
		}
	}
	for _, n := range []int{len(elems) - 1, len(elems) + 1} {
		if _, err := SplitBatch(framed, n); err == nil {
			t.Fatalf("SplitBatch split %d elements as %d", len(elems), n)
		}
	}
}
