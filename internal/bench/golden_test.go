package bench

import (
	"bytes"
	"testing"
)

// Golden tests pin the exact byte output of every renderer on the fixed
// single-row report from series_test.go. The parallel harness promises
// bit-for-bit identical output for every worker count, so these strings
// are a contract: a formatting change here is a breaking change for anyone
// re-plotting the paper's figures from the CSV series.

const goldenRender = `2-cluster/32reg/1bus/lat1
program      unified    URACAM     Fixed        GP
tomcatv        4.400     3.300     3.200     3.500
MEAN           4.400     3.300     3.200     3.500
`

const goldenCSV = `config,program,unified,URACAM,Fixed,GP
2-cluster/32reg/1bus/lat1,tomcatv,4.4000,3.3000,3.2000,3.5000
2-cluster/32reg/1bus/lat1,MEAN,4.4000,3.3000,3.2000,3.5000
`

const goldenTimesCSV = `config,scheme,seconds
2-cluster/32reg/1bus/lat1,URACAM,5.0000
2-cluster/32reg/1bus/lat1,Fixed,1.0000
2-cluster/32reg/1bus/lat1,GP,1.0000
`

const goldenTable2 = `configuration                     URACAM       Fixed          GP     ratio     attempts U/F/GP   partitions F/GP   reused F/GP
2-cluster/32reg/1bus/lat1             5s          1s          1s      5.0x            40/30/35             10/12           0/3
`

func TestRenderGolden(t *testing.T) {
	if got := fakeReport().Render(); got != goldenRender {
		t.Errorf("Render:\n%q\nwant:\n%q", got, goldenRender)
	}
}

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fakeReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenCSV {
		t.Errorf("WriteCSV:\n%q\nwant:\n%q", buf.String(), goldenCSV)
	}
}

func TestWriteTimesCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimesCSV(&buf, []*Report{fakeReport()}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenTimesCSV {
		t.Errorf("WriteTimesCSV:\n%q\nwant:\n%q", buf.String(), goldenTimesCSV)
	}
}

func TestRenderTable2Golden(t *testing.T) {
	if got := RenderTable2([]*Report{fakeReport()}); got != goldenTable2 {
		t.Errorf("RenderTable2:\n%q\nwant:\n%q", got, goldenTable2)
	}
}
