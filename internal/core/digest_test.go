package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/workload"
)

const digestGolden = "testdata/schedule_digests.txt"

// digestJob is one (machine, scheme, loop) cell of the byte-identity
// oracle.
type digestJob struct {
	m   *machine.Config
	alg Algorithm
	g   *ddg.Graph
}

// digestMachines returns the oracle's machine grid: every SweepSet machine
// (the first is the paper's 4-cluster/64reg/1bus/lat1) plus the two
// 32-register paper panels, whose tight register files drive the spill and
// memory-routing transformations.
func digestMachines() []*machine.Config {
	return append(machine.SweepSet(),
		machine.MustClustered(2, 32, 1, 1),
		machine.MustClustered(4, 32, 1, 2))
}

// digestJobs enumerates the oracle in golden-file order. Under short only
// the paper machine's GP loops on SPECfp95 and the DSP corpus on the
// point-to-point machine are kept.
func digestJobs(short bool) []digestJob {
	corpus := append(workload.SPECfp95(), workload.DSP()...)
	nSpec := len(workload.Profiles())
	var jobs []digestJob
	for mi, m := range digestMachines() {
		for _, alg := range []Algorithm{GP, FixedPartition, URACAM} {
			for bi, b := range corpus {
				dsp := bi >= nSpec
				if short && !(mi == 0 && alg == GP && !dsp) &&
					!(m.Topology == machine.PointToPoint && dsp) {
					continue
				}
				for _, l := range b.Loops {
					jobs = append(jobs, digestJob{m: m, alg: alg, g: l.G})
				}
			}
		}
	}
	return jobs
}

// digestLine schedules one cell and renders its oracle line: the sha256 of
// the schedule's JSON encoding plus the escalation's attempt and partition
// counts.
func digestLine(j digestJob) (string, error) {
	res, err := ScheduleLoop(j.g, j.m, &Options{Algorithm: j.alg})
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(res.Schedule)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %s %s %x attempts=%d partitions=%d",
		j.m.Name, j.alg, j.g.Name, sha256.Sum256(body), res.Attempts, res.Partitions), nil
}

// digestAll computes the oracle lines of jobs in order, on a small worker
// pool.
func digestAll(t *testing.T, jobs []digestJob) []string {
	lines := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i], errs[i] = digestLine(jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s %s %s: %v", jobs[i].m.Name, jobs[i].alg, jobs[i].g.Name, err)
		}
	}
	return lines
}

// TestScheduleDigests pins every emitted schedule byte for byte: SPECfp95
// and DSP on six machines under GP, Fixed and URACAM, one line per loop
// with the sha256 of the schedule's JSON, Attempts and Partitions. The
// golden sweep CSV records only per-program IPC to four decimals, so it
// cannot see a moved transfer, MemOp or cluster; this oracle can. Under
// -short only the 81 paper-machine GP loops and the point-to-point DSP
// cells are compared.
//
// Regenerate the golden only for an intentional behavior change (and bump
// schedule.AlgoVersion with it): delete the file and run
//
//	go test ./internal/core -run TestScheduleDigests
//
// which writes the full set and fails so the new golden gets reviewed.
func TestScheduleDigests(t *testing.T) {
	want, err := os.ReadFile(digestGolden)
	if os.IsNotExist(err) {
		var b bytes.Buffer
		for _, l := range digestAll(t, digestJobs(false)) {
			b.WriteString(l + "\n")
		}
		if err := os.WriteFile(digestGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review and commit it", digestGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{} // "machine scheme loop" → full line
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 6 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		golden[strings.Join(f[:3], " ")] = sc.Text()
	}
	jobs := digestJobs(testing.Short())
	if !testing.Short() && len(jobs) != len(golden) {
		t.Fatalf("oracle has %d cells, golden %d", len(jobs), len(golden))
	}
	bad := 0
	for _, got := range digestAll(t, jobs) {
		f := strings.Fields(got)
		key := strings.Join(f[:3], " ")
		if w, ok := golden[key]; !ok {
			t.Errorf("%s: missing from the golden", key)
			bad++
		} else if w != got {
			t.Errorf("schedule diverged:\n  want %s\n  got  %s", w, got)
			bad++
		}
		if bad >= 10 {
			t.Fatal("too many divergences")
		}
	}
}
