package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// portfolioCorpus returns a deterministic slice of real loops: the first
// loop of each SPECfp95 benchmark, then the paper machine's four GP list
// fallbacks (applu/loop3 and fpppp/loop4 from SPECfp95, g721/loop2 and
// viterbi/loop5 from DSP), which run the escalation to its cap.
func portfolioCorpus() []*workload.Loop {
	var loops []*workload.Loop
	for _, bm := range workload.SPECfp95() {
		loops = append(loops, bm.Loops[0])
	}
	fallbacks := map[string]int{"applu": 3, "fpppp": 4, "g721": 2, "viterbi": 5}
	for _, bm := range append(workload.SPECfp95(), workload.DSP()...) {
		if i, ok := fallbacks[bm.Name]; ok {
			loops = append(loops, bm.Loops[i])
		}
	}
	return loops
}

// TestPortfolioK1EqualsSequential pins that Portfolio=1 (and 0) takes the
// sequential path and produces exactly today's output.
func TestPortfolioK1EqualsSequential(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	for _, l := range portfolioCorpus() {
		base, err := ScheduleLoop(l.G, m, nil)
		if err != nil {
			t.Fatalf("%s: %v", l.G.Name, err)
		}
		for _, k := range []int{0, 1} {
			got, err := ScheduleLoop(l.G, m, &Options{Portfolio: k})
			if err != nil {
				t.Fatalf("%s K=%d: %v", l.G.Name, k, err)
			}
			if !reflect.DeepEqual(got.Schedule, base.Schedule) || !reflect.DeepEqual(got.Assign, base.Assign) {
				t.Errorf("%s: Portfolio=%d output differs from sequential", l.G.Name, k)
			}
			if got.PortfolioSeed != 0 {
				t.Errorf("%s: Portfolio=%d reported seed %d", l.G.Name, k, got.PortfolioSeed)
			}
			if got.Attempts != base.Attempts || got.ListFallback != base.ListFallback {
				t.Errorf("%s: Portfolio=%d made %d attempts (fallback %v), sequential %d (fallback %v)",
					l.G.Name, k, got.Attempts, got.ListFallback, base.Attempts, base.ListFallback)
			}
		}
	}
}

// TestPortfolioDeterministicAndNeverWorse pins the acceptance properties:
// for fixed K the result is bit-identical across runs (no
// goroutine-interleaving leakage), K=4 never finishes at a worse II than
// K=1 (seed 0 always races), and K=4 never makes more attempts than K=1
// (both stop at the list-length cap of seed 0's assignment), falling back
// to the same list schedule when both fall back. Every winner must satisfy
// the independent verifier.
func TestPortfolioDeterministicAndNeverWorse(t *testing.T) {
	m := machine.MustClustered(4, 64, 1, 1)
	for _, l := range portfolioCorpus() {
		seq, err := ScheduleLoop(l.G, m, nil)
		if err != nil {
			t.Fatalf("%s: %v", l.G.Name, err)
		}
		a, err := ScheduleLoop(l.G, m, &Options{Portfolio: 4})
		if err != nil {
			t.Fatalf("%s K=4: %v", l.G.Name, err)
		}
		b, err := ScheduleLoop(l.G, m, &Options{Portfolio: 4})
		if err != nil {
			t.Fatalf("%s K=4 rerun: %v", l.G.Name, err)
		}
		if !reflect.DeepEqual(a.Schedule, b.Schedule) || !reflect.DeepEqual(a.Assign, b.Assign) ||
			a.PortfolioSeed != b.PortfolioSeed {
			t.Errorf("%s: K=4 output differs between runs", l.G.Name)
		}
		if !a.ListFallback && a.Schedule.II > seq.Schedule.II {
			t.Errorf("%s: K=4 II %d worse than K=1 II %d", l.G.Name, a.Schedule.II, seq.Schedule.II)
		}
		if a.Attempts > seq.Attempts {
			t.Errorf("%s: K=4 made %d attempts, K=1 %d", l.G.Name, a.Attempts, seq.Attempts)
		}
		if a.ListFallback && seq.ListFallback {
			ja, _ := json.Marshal(a.Schedule)
			js, _ := json.Marshal(seq.Schedule)
			if !bytes.Equal(ja, js) {
				t.Errorf("%s: K=4 and K=1 fall back to different list schedules", l.G.Name)
			}
		}
		if a.PortfolioSeed < 0 || a.PortfolioSeed >= 4 {
			t.Errorf("%s: winner seed %d out of range", l.G.Name, a.PortfolioSeed)
		}
		if err := schedule.Verify(l.G, m, a.Schedule); err != nil {
			t.Errorf("%s: K=4 schedule fails verification: %v", l.G.Name, err)
		}
	}
}

// TestPortfolioURACAMIgnored pins that URACAM (no partition to vary)
// ignores the portfolio knob rather than spawning pointless racers.
func TestPortfolioURACAMIgnored(t *testing.T) {
	g := sampleLoop()
	m := machine.MustClustered(2, 32, 1, 1)
	base, err := ScheduleLoop(g, m, &Options{Algorithm: URACAM})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ScheduleLoop(g, m, &Options{Algorithm: URACAM, Portfolio: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schedule, base.Schedule) || got.Partitions != 0 {
		t.Errorf("URACAM portfolio output differs from sequential")
	}
}
