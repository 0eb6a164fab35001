package gpsched

import (
	"bytes"
	"testing"
)

func buildDaxpy() *DDG {
	g := NewLoop("daxpy", 1000)
	x := g.AddNode(Load, "x[i]")
	y := g.AddNode(Load, "y[i]")
	m := g.AddNode(FPMul, "a*x")
	a := g.AddNode(FPAdd, "+y")
	s := g.AddNode(Store, "y[i]=")
	g.AddDep(x, m, 0)
	g.AddDep(m, a, 0)
	g.AddDep(y, a, 0)
	g.AddDep(a, s, 0)
	return g
}

func TestQuickstartFlow(t *testing.T) {
	g := buildDaxpy()
	m := Clustered(2, 64, 1, 1)
	res, err := Run(g, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.II < MII(g, m) {
		t.Errorf("II %d below MII %d", res.Schedule.II, MII(g, m))
	}
	if res.ListFallback {
		t.Error("daxpy fell back to a list schedule")
	}
	if err := Verify(g, m, res.Schedule); err != nil {
		t.Error(err)
	}
	if res.IPC(g) <= 0 {
		t.Error("non-positive IPC")
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	g := buildDaxpy()
	m := Clustered(2, 32, 1, 2)
	var ipcs []float64
	for _, alg := range []Algorithm{GP, FixedPartition, URACAM} {
		res, err := Run(g, m, &Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		ipcs = append(ipcs, res.IPC(g))
	}
	for i, ipc := range ipcs {
		if ipc <= 0 {
			t.Errorf("algorithm %d: IPC %v", i, ipc)
		}
	}
}

func TestFacadePartition(t *testing.T) {
	g := buildDaxpy()
	m := Clustered(4, 64, 1, 1)
	res := Partition(g, m, MII(g, m), nil)
	if len(res.Assign) != g.N() {
		t.Fatalf("assignment length %d", len(res.Assign))
	}
	for _, c := range res.Assign {
		if c < 0 || c >= 4 {
			t.Fatalf("bad cluster %d", c)
		}
	}
}

func TestFacadeIO(t *testing.T) {
	g := buildDaxpy()
	var buf bytes.Buffer
	if err := WriteLoops(&buf, g); err != nil {
		t.Fatal(err)
	}
	loops, err := ReadLoops(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 || loops[0].N() != g.N() {
		t.Fatal("facade IO round trip failed")
	}
}

func TestFacadeCorpus(t *testing.T) {
	corpus := SPECfp95Corpus()
	if len(corpus) != 10 {
		t.Fatalf("corpus size %d", len(corpus))
	}
	// Schedule one loop of the first benchmark through the facade.
	g := corpus[0].Loops[0].G
	res, err := Run(g, Unified(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ListFallback {
		t.Error("corpus loop fell back to a list schedule")
	}
	if err := Verify(g, Unified(64), res.Schedule); err != nil {
		t.Error(err)
	}
}

func TestUnifiedNeverWorseThanClustered(t *testing.T) {
	// The unified machine is the paper's upper bound: for every corpus
	// loop, GP on the unified machine must reach an IPC at least as high
	// as GP on the 2-cluster machine (same total resources).
	uni := Unified(64)
	clu := Clustered(2, 64, 1, 1)
	for _, bm := range SPECfp95Corpus()[:2] {
		for _, l := range bm.Loops {
			ru, err := Run(l.G, uni, nil)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := Run(l.G, clu, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rc.Schedule.II < ru.Schedule.II {
				t.Errorf("%s: clustered II %d beat unified II %d",
					l.G.Name, rc.Schedule.II, ru.Schedule.II)
			}
		}
	}
}
