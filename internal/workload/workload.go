// Package workload provides the reproduction's stand-in for the paper's
// evaluation corpus: the innermost-loop data dependence graphs that the
// ICTINEO compiler extracted from the SPECfp95 programs, with profiled trip
// counts.
//
// Neither ICTINEO nor SPECfp95 is available here, so the corpus is
// synthetic but deterministic (seeded per benchmark name): ten
// pseudo-benchmarks named after the SPECfp95 programs, each a weighted set
// of innermost loops whose structural parameters — loop size, memory/FP
// operation mix, recurrence density, trip counts — follow the programs'
// well-known characters (e.g. stencil codes are memory-heavy with almost no
// recurrences; hydro2d and applu are recurrence-bound; fpppp has huge
// straight-line FP bodies). The schedulers consume only the DDG and trip
// count, so a corpus spanning the same structural axes exercises the same
// code paths.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/ddg"
	"repro/internal/isa"
)

// Loop is one innermost loop with its relative execution weight (how often
// the loop is entered, from profiling).
type Loop struct {
	G      *ddg.Graph
	Weight float64
}

// Benchmark is one pseudo-SPECfp95 program.
type Benchmark struct {
	Name  string
	Loops []*Loop
}

// Profile are the structural parameters of one benchmark's loops.
type Profile struct {
	Name     string
	Seed     int64
	NumLoops int
	// MinOps/MaxOps bound the loop body size.
	MinOps, MaxOps int
	// MemFrac and FPFrac are the fractions of memory and floating-point
	// operations (the rest is integer).
	MemFrac, FPFrac float64
	// RecDensity scales how many loop-carried recurrences are added
	// (recurrences per 8 operations).
	RecDensity float64
	// TripMin/TripMax bound the profiled trip counts.
	TripMin, TripMax int
	// MaxRecDist bounds the iteration distance of loop-carried recurrences;
	// 0 means the default of 2. DSP-style kernels use deeper recurrences.
	MaxRecDist int
}

// Validate checks that the profile's parameters are generatable. Generate
// panics on an invalid profile; callers constructing profiles at run time
// (fuzzers, config files) should call Validate first.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile without a name")
	case p.NumLoops < 1:
		return fmt.Errorf("workload: profile %q: NumLoops %d < 1", p.Name, p.NumLoops)
	case p.MinOps < 1:
		return fmt.Errorf("workload: profile %q: MinOps %d < 1", p.Name, p.MinOps)
	case p.MaxOps < p.MinOps:
		return fmt.Errorf("workload: profile %q: MaxOps %d < MinOps %d", p.Name, p.MaxOps, p.MinOps)
	case p.MemFrac < 0 || p.FPFrac < 0 || p.MemFrac+p.FPFrac > 1:
		return fmt.Errorf("workload: profile %q: op-mix fractions mem=%v fp=%v invalid", p.Name, p.MemFrac, p.FPFrac)
	case p.RecDensity < 0:
		return fmt.Errorf("workload: profile %q: negative recurrence density", p.Name)
	case p.TripMin < 1:
		return fmt.Errorf("workload: profile %q: TripMin %d < 1", p.Name, p.TripMin)
	case p.TripMax < p.TripMin:
		return fmt.Errorf("workload: profile %q: TripMax %d < TripMin %d", p.Name, p.TripMax, p.TripMin)
	case p.MaxRecDist < 0:
		return fmt.Errorf("workload: profile %q: negative MaxRecDist", p.Name)
	}
	return nil
}

func (p Profile) recDist() int {
	if p.MaxRecDist > 0 {
		return p.MaxRecDist
	}
	return 2
}

// Profiles returns the ten SPECfp95 stand-in profiles, in the paper's
// customary listing order.
func Profiles() []Profile {
	return []Profile{
		{Name: "tomcatv", Seed: 101, NumLoops: 7, MinOps: 18, MaxOps: 42, MemFrac: 0.34, FPFrac: 0.46, RecDensity: 0.5, TripMin: 60, TripMax: 260},
		{Name: "swim", Seed: 102, NumLoops: 8, MinOps: 26, MaxOps: 60, MemFrac: 0.40, FPFrac: 0.45, RecDensity: 0.15, TripMin: 120, TripMax: 500},
		{Name: "su2cor", Seed: 103, NumLoops: 9, MinOps: 14, MaxOps: 40, MemFrac: 0.30, FPFrac: 0.50, RecDensity: 0.7, TripMin: 40, TripMax: 200},
		{Name: "hydro2d", Seed: 104, NumLoops: 10, MinOps: 12, MaxOps: 34, MemFrac: 0.28, FPFrac: 0.48, RecDensity: 1.0, TripMin: 50, TripMax: 220},
		{Name: "mgrid", Seed: 105, NumLoops: 6, MinOps: 10, MaxOps: 26, MemFrac: 0.46, FPFrac: 0.44, RecDensity: 0.2, TripMin: 100, TripMax: 400},
		{Name: "applu", Seed: 106, NumLoops: 9, MinOps: 22, MaxOps: 52, MemFrac: 0.30, FPFrac: 0.50, RecDensity: 0.85, TripMin: 30, TripMax: 160},
		{Name: "turb3d", Seed: 107, NumLoops: 8, MinOps: 16, MaxOps: 44, MemFrac: 0.24, FPFrac: 0.58, RecDensity: 0.4, TripMin: 60, TripMax: 260},
		{Name: "apsi", Seed: 108, NumLoops: 10, MinOps: 12, MaxOps: 40, MemFrac: 0.32, FPFrac: 0.46, RecDensity: 0.55, TripMin: 40, TripMax: 220},
		{Name: "fpppp", Seed: 109, NumLoops: 5, MinOps: 60, MaxOps: 110, MemFrac: 0.18, FPFrac: 0.66, RecDensity: 0.1, TripMin: 20, TripMax: 90},
		{Name: "wave5", Seed: 110, NumLoops: 9, MinOps: 16, MaxOps: 48, MemFrac: 0.38, FPFrac: 0.44, RecDensity: 0.35, TripMin: 60, TripMax: 280},
	}
}

// DSPProfiles returns a second corpus family in the style of the paper's
// motivating DSP/media workloads (MediaBench kernels on C6x-class VLIWs):
// small integer-heavy loop bodies with little or no floating point, deep
// loop-carried recurrences (feedback filters, bit-serial state machines)
// and large trip counts.
func DSPProfiles() []Profile {
	return []Profile{
		{Name: "adpcm", Seed: 201, NumLoops: 6, MinOps: 6, MaxOps: 18, MemFrac: 0.30, FPFrac: 0.00, RecDensity: 2.4, TripMin: 200, TripMax: 2000, MaxRecDist: 3},
		{Name: "g721", Seed: 202, NumLoops: 7, MinOps: 8, MaxOps: 22, MemFrac: 0.28, FPFrac: 0.00, RecDensity: 2.0, TripMin: 160, TripMax: 1200, MaxRecDist: 4},
		{Name: "gsm", Seed: 203, NumLoops: 8, MinOps: 8, MaxOps: 24, MemFrac: 0.34, FPFrac: 0.04, RecDensity: 1.6, TripMin: 120, TripMax: 900, MaxRecDist: 3},
		{Name: "jpeg", Seed: 204, NumLoops: 8, MinOps: 10, MaxOps: 28, MemFrac: 0.40, FPFrac: 0.06, RecDensity: 1.2, TripMin: 64, TripMax: 640, MaxRecDist: 2},
		{Name: "mpeg2", Seed: 205, NumLoops: 7, MinOps: 10, MaxOps: 26, MemFrac: 0.42, FPFrac: 0.05, RecDensity: 1.4, TripMin: 96, TripMax: 720, MaxRecDist: 2},
		{Name: "fir", Seed: 206, NumLoops: 5, MinOps: 6, MaxOps: 16, MemFrac: 0.38, FPFrac: 0.08, RecDensity: 1.8, TripMin: 256, TripMax: 4096, MaxRecDist: 2},
		{Name: "iir", Seed: 207, NumLoops: 5, MinOps: 6, MaxOps: 14, MemFrac: 0.26, FPFrac: 0.08, RecDensity: 3.0, TripMin: 256, TripMax: 4096, MaxRecDist: 4},
		{Name: "viterbi", Seed: 208, NumLoops: 6, MinOps: 8, MaxOps: 20, MemFrac: 0.32, FPFrac: 0.00, RecDensity: 2.6, TripMin: 128, TripMax: 1024, MaxRecDist: 3},
	}
}

// SPECfp95 generates the full deterministic corpus.
func SPECfp95() []*Benchmark {
	return generateAll(Profiles())
}

// DSP generates the deterministic DSP/MediaBench-style corpus.
func DSP() []*Benchmark {
	return generateAll(DSPProfiles())
}

func generateAll(profiles []Profile) []*Benchmark {
	bms := make([]*Benchmark, 0, len(profiles))
	for _, p := range profiles {
		bms = append(bms, Generate(p))
	}
	return bms
}

// Generate builds one benchmark from a profile. The same profile always
// yields the same loops. It panics on an invalid profile (see
// Profile.Validate) and on a generator bug that produces an invalid loop.
func Generate(p Profile) *Benchmark {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	r := rand.New(rand.NewSource(p.Seed))
	b := &Benchmark{Name: p.Name}
	for i := 0; i < p.NumLoops; i++ {
		n := p.MinOps + r.Intn(p.MaxOps-p.MinOps+1)
		g := genLoop(r, p, i, n)
		if err := g.Validate(); err != nil {
			// Generation is constructive (dist-0 edges only go forward), so
			// this indicates a generator bug; fail loudly.
			panic("workload: generated invalid loop: " + err.Error())
		}
		b.Loops = append(b.Loops, &Loop{G: g, Weight: 1 + float64(r.Intn(9))})
	}
	return b
}

// genLoop builds one loop body: a connected forward DAG of data dependences
// with profile-controlled operation mix, plus loop-carried recurrences and
// occasional memory-ordering edges.
func genLoop(r *rand.Rand, p Profile, idx, n int) *ddg.Graph {
	niter := p.TripMin + r.Intn(p.TripMax-p.TripMin+1)
	g := ddg.New(p.Name+"/loop"+strconv.Itoa(idx), niter)

	for i := 0; i < n; i++ {
		op := pickOp(r, p)
		if i == 0 && !op.ProducesValue() {
			// The first node must produce a value so every later node can
			// draw at least one producer edge, keeping the body connected.
			op = isa.Load
		}
		g.AddNode(op, "")
	}

	// Forward data edges: every node after the first gets 1–3 producers
	// among the earlier value-producing nodes, keeping the body connected.
	producers := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if len(producers) > 0 {
			k := 1 + r.Intn(2)
			if r.Float64() < 0.25 {
				k++
			}
			seen := map[int]bool{}
			for j := 0; j < k; j++ {
				from := producers[r.Intn(len(producers))]
				if seen[from] {
					continue
				}
				seen[from] = true
				g.AddEdge(ddg.Edge{
					From: from, To: i,
					Lat:  isa.DefaultLatency(g.Nodes[from].Op),
					Kind: ddg.Data,
				})
			}
		}
		if g.Nodes[i].Op.ProducesValue() {
			producers = append(producers, i)
		}
	}

	// Loop-carried recurrences: back edges j→i (i < j) at distance
	// 1–MaxRecDist.
	recs := int(p.RecDensity * float64(n) / 8)
	if n < 2 {
		recs = 0
	}
	for k := 0; k < recs; k++ {
		i := r.Intn(n - 1)
		j := i + 1 + r.Intn(n-i-1)
		if !g.Nodes[j].Op.ProducesValue() {
			continue
		}
		g.AddEdge(ddg.Edge{
			From: j, To: i,
			Lat:  isa.DefaultLatency(g.Nodes[j].Op),
			Dist: 1 + r.Intn(p.recDist()),
			Kind: ddg.Data,
		})
	}

	// Memory ordering: each store gets a distance-1 ordering edge to one
	// later (or wrapped) load with some probability, modelling may-alias
	// store→load pairs.
	var loads, stores []int
	for i, nd := range g.Nodes {
		switch nd.Op {
		case isa.Load:
			loads = append(loads, i)
		case isa.Store:
			stores = append(stores, i)
		}
	}
	for _, s := range stores {
		if len(loads) == 0 || r.Float64() > 0.3 {
			continue
		}
		l := loads[r.Intn(len(loads))]
		if l == s {
			continue
		}
		dist := 1
		if l > s {
			dist = 0
		}
		// Zero-distance ordering must go forward to keep the body acyclic.
		if dist == 0 && l < s {
			continue
		}
		g.AddEdge(ddg.Edge{From: s, To: l, Lat: isa.DefaultLatency(isa.Store), Dist: dist, Kind: ddg.Mem})
	}
	return g
}

// pickOp samples an operation class according to the profile's mix.
func pickOp(r *rand.Rand, p Profile) isa.OpClass {
	x := r.Float64()
	switch {
	case x < p.MemFrac:
		if r.Float64() < 0.68 {
			return isa.Load
		}
		return isa.Store
	case x < p.MemFrac+p.FPFrac:
		y := r.Float64()
		switch {
		case y < 0.48:
			return isa.FPAdd
		case y < 0.93:
			return isa.FPMul
		default:
			return isa.FPDiv
		}
	default:
		if r.Float64() < 0.85 {
			return isa.IntALU
		}
		return isa.IntMul
	}
}

// Stats summarizes a benchmark's structure, used by tests and tools.
type Stats struct {
	Loops       int
	Ops         int
	MemOps      int
	FPOps       int
	Recurrences int
}

// Summarize computes structural statistics of a benchmark.
func Summarize(b *Benchmark) Stats {
	var s Stats
	s.Loops = len(b.Loops)
	for _, l := range b.Loops {
		s.Ops += l.G.N()
		for _, nd := range l.G.Nodes {
			switch nd.Op.Unit() {
			case isa.MemUnit:
				s.MemOps++
			case isa.FPUnit:
				s.FPOps++
			}
		}
		s.Recurrences += len(l.G.Recurrences())
	}
	return s
}
