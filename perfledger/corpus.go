package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ddgio"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/workload"
)

// defaultSeed reproduces the corpora in their canonical order.
const defaultSeed = 1

// paperMachine is the machine of the paper's Figure 2 bottom panel, the
// 4-cluster Table 1 configuration with 64 registers and one 1-cycle bus.
func paperMachine() *machine.Config { return machine.MustClustered(4, 64, 1, 1) }

// compileJob is one compilation handed to the scheduler: the loop and the
// machine as text, so every compilation decodes its own inputs the way the
// command-line pipeline does.
type compileJob struct {
	name        string
	loopText    []byte
	machineText []byte
	alg         core.Algorithm
	cell        int // machine × scheme cell
	bench       int // benchmark within the corpus
	weight      float64
}

// compileSet is a compile workload's inputs: every job in the canonical
// cell → benchmark → loop order, and the order one pass visits them in.
type compileSet struct {
	jobs    []compileJob
	order   []int
	cells   int
	benches int
}

// newCompileSet encodes every loop of bms for every machine × algorithm
// cell. The default seed visits the jobs in canonical order; any other
// seed visits the same jobs in a seeded permutation.
func newCompileSet(bms []*workload.Benchmark, machines []*machine.Config, algs []core.Algorithm, seed int64) (*compileSet, error) {
	cs := &compileSet{cells: len(machines) * len(algs), benches: len(bms)}
	loopText := make([][][]byte, len(bms))
	for b, bm := range bms {
		for _, l := range bm.Loops {
			var buf bytes.Buffer
			if err := ddgio.Write(&buf, l.G); err != nil {
				return nil, fmt.Errorf("encode %s: %w", l.G.Name, err)
			}
			loopText[b] = append(loopText[b], buf.Bytes())
		}
	}
	cell := 0
	for _, m := range machines {
		mtext := []byte(machine.Format(m))
		for _, alg := range algs {
			for b, bm := range bms {
				for i, l := range bm.Loops {
					cs.jobs = append(cs.jobs, compileJob{
						name:        fmt.Sprintf("%s@%s/%s", l.G.Name, m.Name, alg),
						loopText:    loopText[b][i],
						machineText: mtext,
						alg:         alg,
						cell:        cell,
						bench:       b,
						weight:      l.Weight,
					})
				}
			}
			cell++
		}
	}
	cs.order = make([]int, len(cs.jobs))
	for i := range cs.order {
		cs.order[i] = i
	}
	if seed != defaultSeed {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(cs.order), func(i, j int) { cs.order[i], cs.order[j] = cs.order[j], cs.order[i] })
	}
	return cs, nil
}

func specfpPaperSet(seed int64) (*compileSet, error) {
	return newCompileSet(workload.SPECfp95(), []*machine.Config{paperMachine()}, []core.Algorithm{core.GP}, seed)
}

func dspSweepSet(seed int64) (*compileSet, error) {
	return newCompileSet(workload.DSP(), machine.SweepSet(), []core.Algorithm{core.GP, core.URACAM}, seed)
}

// fleetInputs is fleet-zipf's request population: one verbatim
// /v1/schedule body per loop on the paper machine under GP, and one
// /v1/schedule/batch compilation unit per benchmark.
type fleetInputs struct {
	singles [][]byte
	names   []string
	// Per singleton, what the IPC reduction needs besides the reply.
	weights      []float64
	nodes, trips []int
	batches      []fleetBatch
}

type fleetBatch struct {
	name    string
	body    []byte
	members []int // indices into singles, in envelope order
}

func newFleetInputs(bms []*workload.Benchmark) (*fleetInputs, error) {
	m := paperMachine()
	in := &fleetInputs{}
	for _, bm := range bms {
		batch := server.BatchRequest{Machine: m, Scheme: "GP"}
		fb := fleetBatch{name: bm.Name}
		for _, l := range bm.Loops {
			var buf bytes.Buffer
			if err := ddgio.Write(&buf, l.G); err != nil {
				return nil, fmt.Errorf("encode %s: %w", l.G.Name, err)
			}
			body, err := json.Marshal(server.ScheduleRequest{LoopText: buf.String(), Machine: m, Scheme: "GP"})
			if err != nil {
				return nil, fmt.Errorf("encode request %s: %w", l.G.Name, err)
			}
			fb.members = append(fb.members, len(in.singles))
			in.singles = append(in.singles, body)
			in.names = append(in.names, l.G.Name)
			in.weights = append(in.weights, l.Weight)
			in.nodes = append(in.nodes, l.G.N())
			in.trips = append(in.trips, l.G.Niter)
			batch.Loops = append(batch.Loops, server.BatchLoop{LoopText: buf.String()})
		}
		body, err := json.Marshal(batch)
		if err != nil {
			return nil, fmt.Errorf("encode batch %s: %w", bm.Name, err)
		}
		fb.body = body
		in.batches = append(in.batches, fb)
	}
	return in, nil
}

// Request-stream shape of fleet-zipf.
const (
	zipfS     = 1.1  // skew of both samplers
	batchFrac = 0.10 // share of requests that are batch compilation units
)

// requestStream is the client's seeded request sequence: a coin picks a
// batch with probability batchFrac, then a Zipf sampler picks which
// singleton or which batch. Rank 0 is the first loop (or benchmark) of the
// corpus for every seed, so the popularity profile is the same and only the
// draw sequence changes with the seed.
type requestStream struct {
	coin    *rand.Rand
	singles *bench.ZipfSampler
	batches *bench.ZipfSampler
}

func newRequestStream(seed int64, nSingles, nBatches int) *requestStream {
	base := seed * 1_000_003
	return &requestStream{
		coin:    rand.New(rand.NewSource(base)),
		singles: bench.NewZipfSampler(base+1, zipfS, uint64(nSingles-1)),
		batches: bench.NewZipfSampler(base+2, zipfS, uint64(nBatches-1)),
	}
}

// next returns whether the next request is a batch, and its index.
func (s *requestStream) next() (batch bool, idx int) {
	if s.coin.Float64() < batchFrac {
		return true, int(s.batches.Next())
	}
	return false, int(s.singles.Next())
}

// frameBatch renders the envelope a batch of the given singleton response
// bodies must come back as: each body with its trailing newline trimmed,
// framed by the server's batch delimiters.
func frameBatch(bodies [][]byte) []byte {
	var b bytes.Buffer
	b.WriteString(server.BatchOpen)
	for i, body := range bodies {
		if i > 0 {
			b.WriteString(server.BatchSep)
		}
		b.Write(bytes.TrimSuffix(body, []byte("\n")))
	}
	b.WriteString(server.BatchClose)
	return b.Bytes()
}
