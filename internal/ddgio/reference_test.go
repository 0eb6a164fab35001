package ddgio

// The text reader and writer that Read and Write replaced, kept verbatim as
// references: the fuzz targets below require the in-memory reader to return
// the same graphs or the same error text, and the append-based writer to
// write the same bytes.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ddg"
	"repro/internal/isa"
	"repro/internal/workload"
)

// refWrite is the fmt-based writer Write replaced, kept verbatim.
func refWrite(w io.Writer, loops ...*ddg.Graph) error {
	bw := bufio.NewWriter(w)
	for _, g := range loops {
		name := g.Name
		if name == "" {
			name = "loop"
		}
		fmt.Fprintf(bw, "loop %s %d\n", strings.ReplaceAll(name, " ", "_"), g.Niter)
		for _, n := range g.Nodes {
			if n.Name != "" {
				fmt.Fprintf(bw, "node %d %s %s\n", n.ID, n.Op, strings.ReplaceAll(n.Name, " ", "_"))
			} else {
				fmt.Fprintf(bw, "node %d %s\n", n.ID, n.Op)
			}
		}
		for _, e := range g.Edges {
			fmt.Fprintf(bw, "edge %d %d %d %d %s\n", e.From, e.To, e.Lat, e.Dist, e.Kind)
		}
	}
	return bw.Flush()
}

// refRead is the bufio.Scanner reader Read replaced, kept verbatim but for
// the op-class parser.
func refRead(r io.Reader) ([]*ddg.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var loops []*ddg.Graph
	var cur *ddg.Graph
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "loop":
			if len(fields) != 3 {
				return nil, fmt.Errorf("ddgio: line %d: loop wants <name> <niter>", lineno)
			}
			niter, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("ddgio: line %d: bad trip count %q", lineno, fields[2])
			}
			cur = ddg.New(fields[1], niter)
			loops = append(loops, cur)
		case "node":
			if cur == nil {
				return nil, fmt.Errorf("ddgio: line %d: node before loop", lineno)
			}
			if len(fields) < 3 || len(fields) > 4 {
				return nil, fmt.Errorf("ddgio: line %d: node wants <id> <opclass> [label]", lineno)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != cur.N() {
				return nil, fmt.Errorf("ddgio: line %d: node IDs must be dense and ordered (got %q, want %d)", lineno, fields[1], cur.N())
			}
			op, err := refParseOpClass(fields[2])
			if err != nil {
				return nil, fmt.Errorf("ddgio: line %d: %v", lineno, err)
			}
			label := ""
			if len(fields) == 4 {
				label = fields[3]
			}
			cur.AddNode(op, label)
		case "edge":
			if cur == nil {
				return nil, fmt.Errorf("ddgio: line %d: edge before loop", lineno)
			}
			if len(fields) != 6 {
				return nil, fmt.Errorf("ddgio: line %d: edge wants <from> <to> <lat> <dist> <kind>", lineno)
			}
			var nums [4]int
			for i := 0; i < 4; i++ {
				v, err := strconv.Atoi(fields[1+i])
				if err != nil {
					return nil, fmt.Errorf("ddgio: line %d: bad number %q", lineno, fields[1+i])
				}
				nums[i] = v
			}
			var kind ddg.EdgeKind
			switch fields[5] {
			case "data":
				kind = ddg.Data
			case "mem":
				kind = ddg.Mem
			default:
				return nil, fmt.Errorf("ddgio: line %d: bad edge kind %q", lineno, fields[5])
			}
			cur.AddEdge(ddg.Edge{From: nums[0], To: nums[1], Lat: nums[2], Dist: nums[3], Kind: kind})
		default:
			return nil, fmt.Errorf("ddgio: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ddgio: %w", err)
	}
	for _, g := range loops {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("ddgio: %w", err)
		}
	}
	return loops, nil
}

// refParseOpClass is the op-class parser ParseOpClass replaced.
func refParseOpClass(s string) (isa.OpClass, error) {
	for c := 0; c < isa.NumOpClasses; c++ {
		if strings.EqualFold(isa.OpClass(c).String(), s) {
			return isa.OpClass(c), nil
		}
	}
	return 0, fmt.Errorf("unknown op class %q", s)
}

// sameGraphs reports whether two parses produced the same loops: names,
// trip counts, nodes and edges.
func sameGraphs(a, b []*ddg.Graph) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Niter != b[i].Niter ||
			!reflect.DeepEqual(a[i].Nodes, b[i].Nodes) || !reflect.DeepEqual(a[i].Edges, b[i].Edges) {
			return false
		}
	}
	return true
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzReadMatchesReference runs Read, ReadString and refRead on the same
// input: all three return the same loops or the same error text, and an
// accepted input writes the same bytes through Write and refWrite.
func FuzzReadMatchesReference(f *testing.F) {
	f.Add([]byte("# comment\nloop daxpy 1000\nnode 0 Load x\nnode 1 FPMul\nnode 2 Store y\nedge 0 1 2 0 data\nedge 1 2 4 0 data\nedge 2 0 1 1 mem\n"))
	f.Add([]byte("loop a 1\nnode 0 IntALU\n\nloop b 2\nnode 0 FPDiv\nedge 0 0 8 1 data\n"))
	f.Add([]byte("loop bad 0\n"))
	f.Add([]byte("\tloop\v t\f+07\r\nnode 0 load  x y\n  # node 1 Store\nnode 1 STORE #c\r\nedge 0 1 -1 0 data"))
	f.Add([]byte("loop \u00a0t 3\nnode\u2003 0 IntALU a\u0085b\nnode 1 \xffIntALU\n"))
	f.Add([]byte("loop t 3\nnode 0 \u017ftore\nnode 1 Load\u00a0\nedge 1 0 2 0 data\n"))
	f.Add([]byte("node 0 Load\n"))
	f.Add([]byte("loop t 1\nedge 0 0 1 0 mem\nloop u 1 2\n"))
	f.Add([]byte("loop t 1\nnode 0 Load\nnode 1 Load\nedge 0 1 1 0 data\nedge 1 0 1 0 data\n"))
	f.Add([]byte("loop t 99999999999999999999\n"))
	for _, bms := range [][]*workload.Benchmark{workload.SPECfp95()[:1], workload.DSP()[:1]} {
		var buf bytes.Buffer
		for _, l := range bms[0].Loops[:2] {
			if err := refWrite(&buf, l.G); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := refRead(bytes.NewReader(data))
		got, gerr := Read(bytes.NewReader(data))
		if errText(gerr) != errText(werr) || !sameGraphs(got, want) {
			t.Fatalf("Read: %v, %s\nreference: %v, %s", gerr, dumpLoops(got), werr, dumpLoops(want))
		}
		got, gerr = ReadString(string(data))
		if errText(gerr) != errText(werr) || !sameGraphs(got, want) {
			t.Fatalf("ReadString: %v, %s\nreference: %v, %s", gerr, dumpLoops(got), werr, dumpLoops(want))
		}
		if werr != nil {
			return
		}
		checkWriteMatches(t, want...)
	})
}

// FuzzWriteMatchesReference writes a small loop with arbitrary loop and node
// names: Write, AppendText and refWrite give the same bytes.
func FuzzWriteMatchesReference(f *testing.F) {
	f.Add("daxpy", "x[i]", 100)
	f.Add("a b", "load a[i]", 1)
	f.Add("", "", 0)
	f.Add(" \t\u00a0\xff", "  ", -5)
	f.Fuzz(func(t *testing.T, name, label string, niter int) {
		g := ddg.New(name, niter)
		g.AddNode(isa.Load, label)
		g.AddNode(isa.FPMul, "")
		g.AddNode(isa.Store, label+label)
		g.AddEdge(ddg.Edge{From: 0, To: 1, Lat: 2})
		g.AddEdge(ddg.Edge{From: 1, To: 2, Lat: 4, Dist: 3, Kind: ddg.Mem})
		checkWriteMatches(t, g, g)
	})
}

func checkWriteMatches(t *testing.T, loops ...*ddg.Graph) {
	t.Helper()
	var want, got bytes.Buffer
	if err := refWrite(&want, loops...); err != nil {
		t.Fatal(err)
	}
	if err := Write(&got, loops...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write:\n%q\nreference:\n%q", got.Bytes(), want.Bytes())
	}
	prefix := []byte("prefix\x00")
	if app := AppendText(prefix, loops...); !bytes.Equal(app, append(prefix, want.Bytes()...)) {
		t.Fatalf("AppendText:\n%q\nreference:\n%q", app, want.Bytes())
	}
}

func dumpLoops(loops []*ddg.Graph) string {
	var b strings.Builder
	for _, g := range loops {
		fmt.Fprintf(&b, "%q niter %d nodes %+v edges %+v; ", g.Name, g.Niter, g.Nodes, g.Edges)
	}
	return b.String()
}

// TestReadLineLimit pins the longest accepted line at the reference's:
// a line with 4 MiB or more before its newline (or the end of the text)
// fails with bufio.ErrTooLong, and a shorter one parses.
func TestReadLineLimit(t *testing.T) {
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine} {
		line := "node 0 Load " + strings.Repeat("x", n-len("node 0 Load "))
		for _, end := range []string{"\n", "", "\r\n"} {
			text := "loop t 1\n" + line + end
			want, werr := refRead(strings.NewReader(text))
			got, gerr := Read(strings.NewReader(text))
			if errText(gerr) != errText(werr) || !sameGraphs(got, want) {
				t.Errorf("line of %d bytes ending %q: got %v, reference %v", n, end, gerr, werr)
			}
			raw := len(line + strings.TrimSuffix(end, "\n"))
			if errors.Is(gerr, bufio.ErrTooLong) != (raw >= maxLine) {
				t.Errorf("%d bytes before the newline: error %v", raw, gerr)
			}
		}
	}
}
