package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

func fakeReport() *Report {
	return &Report{
		Machine: machine.MustClustered(2, 32, 1, 1),
		Rows: []Row{
			{Benchmark: "tomcatv", IPC: map[string]float64{
				SchemeUnified: 4.4, SchemeURACAM: 3.3, SchemeFixed: 3.2, SchemeGP: 3.5}},
		},
		MeanIPC: map[string]float64{
			SchemeUnified: 4.4, SchemeURACAM: 3.3, SchemeFixed: 3.2, SchemeGP: 3.5},
		SchedTime: map[string]time.Duration{
			SchemeUnified: time.Second, SchemeURACAM: 5 * time.Second,
			SchemeFixed: time.Second, SchemeGP: time.Second},
		Attempts: map[string]int{
			SchemeUnified: 6, SchemeURACAM: 40, SchemeFixed: 30, SchemeGP: 35},
		Partitions:       map[string]int{SchemeFixed: 10, SchemeGP: 12},
		PartitionsReused: map[string]int{SchemeGP: 3},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := fakeReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header+row+mean:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "config,program,unified,URACAM,Fixed,GP") {
		t.Errorf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "tomcatv") || !strings.Contains(lines[1], "3.5000") {
		t.Errorf("bad row: %s", lines[1])
	}
	if !strings.Contains(lines[2], "MEAN") {
		t.Errorf("bad mean row: %s", lines[2])
	}
}

func TestWriteTimesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimesCSV(&buf, []*Report{fakeReport()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "URACAM,5.0000") {
		t.Errorf("missing URACAM time:\n%s", out)
	}
	if strings.Contains(out, "unified") {
		t.Errorf("Table 2 must not include the unified scheme:\n%s", out)
	}
}
