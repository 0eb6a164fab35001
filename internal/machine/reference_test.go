package machine

// The description writer and parser that AppendFormat and ParseString
// replaced, kept verbatim as references: the fuzz targets below require the
// same bytes from Format and the same configuration or error text from
// Parse.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/isa"
)

// refFormat is the fmt-based Format that AppendFormat replaced, kept
// verbatim.
func refFormat(c *Config) string {
	var b strings.Builder
	// The name must survive strings.Fields on the way back in: every
	// whitespace rune becomes an underscore.
	name := strings.Map(func(r rune) rune {
		if unicode.IsSpace(r) {
			return '_'
		}
		return r
	}, c.Name)
	if name == "" {
		name = "machine"
	}
	fmt.Fprintf(&b, "machine %s\n", name)
	for cl := 0; cl < c.Clusters; cl++ {
		fmt.Fprintf(&b, "cluster %d %d %d %d\n",
			c.UnitsIn(cl, isa.IntUnit), c.UnitsIn(cl, isa.FPUnit), c.UnitsIn(cl, isa.MemUnit), c.RegsIn(cl))
	}
	if c.Clusters > 1 {
		pipe := "blocking"
		if c.Pipelined {
			pipe = "pipelined"
		}
		fmt.Fprintf(&b, "interconnect %s %d %d %s\n", c.Topology, c.NBus, c.LatBus, pipe)
	}
	for op := 0; op < isa.NumOpClasses; op++ {
		fmt.Fprintf(&b, "latency %s %d\n", isa.OpClass(op), c.Latency[op])
	}
	return b.String()
}

// refParse is the bufio.Scanner Parse that ParseString replaced, kept
// verbatim.
func refParse(r io.Reader) (*Config, error) {
	c := &Config{Latency: isa.DefaultLatencies()}
	sawName := false
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "machine":
			if len(fields) != 2 {
				return nil, fmt.Errorf("machine: line %d: machine wants <name>", lineno)
			}
			if sawName {
				return nil, fmt.Errorf("machine: line %d: duplicate machine line", lineno)
			}
			c.Name = fields[1]
			sawName = true
		case "cluster":
			if len(fields) != 5 {
				return nil, fmt.Errorf("machine: line %d: cluster wants <int> <fp> <mem> <regs>", lineno)
			}
			var nums [4]int
			for i := range nums {
				v, err := strconv.Atoi(fields[1+i])
				if err != nil {
					return nil, fmt.Errorf("machine: line %d: bad number %q", lineno, fields[1+i])
				}
				nums[i] = v
			}
			c.PerCluster = append(c.PerCluster, ClusterSpec{
				Units: [isa.NumUnitKinds]int{nums[0], nums[1], nums[2]},
				Regs:  nums[3],
			})
		case "interconnect":
			if len(fields) != 5 {
				return nil, fmt.Errorf("machine: line %d: interconnect wants <bus|p2p> <n> <lat> <pipelined|blocking>", lineno)
			}
			switch fields[1] {
			case "bus":
				c.Topology = SharedBus
			case "p2p":
				c.Topology = PointToPoint
			default:
				return nil, fmt.Errorf("machine: line %d: unknown topology %q", lineno, fields[1])
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("machine: line %d: bad count %q", lineno, fields[2])
			}
			lat, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("machine: line %d: bad latency %q", lineno, fields[3])
			}
			c.NBus, c.LatBus = n, lat
			switch fields[4] {
			case "pipelined":
				c.Pipelined = true
			case "blocking":
				c.Pipelined = false
			default:
				return nil, fmt.Errorf("machine: line %d: want pipelined or blocking, got %q", lineno, fields[4])
			}
		case "latency":
			if len(fields) != 3 {
				return nil, fmt.Errorf("machine: line %d: latency wants <opclass> <cycles>", lineno)
			}
			op, ok := refParseOpClass(fields[1])
			if !ok {
				return nil, fmt.Errorf("machine: line %d: unknown op class %q", lineno, fields[1])
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("machine: line %d: bad latency %q", lineno, fields[2])
			}
			c.Latency[op] = v
		default:
			return nil, fmt.Errorf("machine: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	if !sawName {
		return nil, fmt.Errorf("machine: missing machine line")
	}
	if len(c.PerCluster) == 0 {
		return nil, fmt.Errorf("machine %q: no cluster lines", c.Name)
	}
	c.Clusters = len(c.PerCluster)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func refParseOpClass(s string) (isa.OpClass, bool) {
	for op := 0; op < isa.NumOpClasses; op++ {
		if strings.EqualFold(isa.OpClass(op).String(), s) {
			return isa.OpClass(op), true
		}
	}
	return 0, false
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzParseMatchesReference parses one input with Parse, ParseString and
// refParse: the same configuration or the same error text, and an accepted
// configuration formats to the same bytes as through refFormat.
func FuzzParseMatchesReference(f *testing.F) {
	for _, m := range append(Table1(64, 1, 1), SweepSet()...) {
		f.Add([]byte(refFormat(m)))
	}
	f.Add([]byte("# het\nmachine  h\ncluster 3 1 2 24\r\n\tcluster 1 3 2 40\ninterconnect p2p 2 3 pipelined\nlatency load 5\nlatency FPDIV +9\n"))
	f.Add([]byte("machine m\ncluster 1 1 1 8\n"))
	f.Add([]byte("machine a b\n"))
	f.Add([]byte("machine m\nmachine n\n"))
	f.Add([]byte("machine m\ncluster 1 1 1\ninterconnect ring 1 1 blocking\n"))
	f.Add([]byte("machine \u00a0m\u2002x\ncluster 1 1 1 8\nlatency \u212aoad 3\nlatency Copy 0\n"))
	f.Add([]byte("machine m\ncluster 0 0 0 8\n"))
	f.Add([]byte("cluster 1 1 1 8\nlatency Bogus 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := refParse(bytes.NewReader(data))
		for _, got := range []func() (*Config, error){
			func() (*Config, error) { return Parse(bytes.NewReader(data)) },
			func() (*Config, error) { return ParseString(string(data)) },
		} {
			c, err := got()
			if errText(err) != errText(werr) || !reflect.DeepEqual(c, want) {
				t.Fatalf("got %+v, %v\nreference %+v, %v", c, err, want, werr)
			}
		}
		if werr == nil {
			checkFormatMatches(t, want)
		}
	})
}

// FuzzFormatMatchesReference formats configurations with arbitrary names,
// resources and interconnects: Format, AppendFormat and refFormat give the
// same bytes.
func FuzzFormatMatchesReference(f *testing.F) {
	f.Add("4-cluster/64reg/1bus/lat1", 4, 1, 16, 1, 1, false, false)
	f.Add("", 1, 4, 64, 0, 0, false, false)
	f.Add("a b\tc\u00a0d\u3000\xff", 2, -1, 8, 3, 2, true, true)
	f.Fuzz(func(t *testing.T, name string, clusters, units, regs, nbus, lat int, p2p, pipelined bool) {
		clusters = min(max(clusters, 0), 8)
		c := &Config{
			Name: name, Clusters: clusters, NBus: nbus, LatBus: lat, Pipelined: pipelined,
			Units: [isa.NumUnitKinds]int{units, units + 1, units - 1}, RegsPerCluster: regs,
			Latency: isa.DefaultLatencies(),
		}
		if p2p {
			c.Topology = PointToPoint
		}
		c.Latency[isa.Load] = lat
		checkFormatMatches(t, c)
		c.PerCluster = make([]ClusterSpec, clusters)
		for i := range c.PerCluster {
			c.PerCluster[i] = ClusterSpec{Units: [isa.NumUnitKinds]int{i, units, regs}, Regs: regs - i}
		}
		checkFormatMatches(t, c)
	})
}

func checkFormatMatches(t *testing.T, c *Config) {
	t.Helper()
	want := refFormat(c)
	if got := Format(c); got != want {
		t.Fatalf("Format:\n%q\nreference:\n%q", got, want)
	}
	prefix := []byte("prefix\x00")
	if got := AppendFormat(prefix, c); string(got) != string(prefix)+want {
		t.Fatalf("AppendFormat:\n%q\nreference:\n%q", got, want)
	}
}

// TestParseLineLimit pins the longest accepted line at the reference's
// (bufio.MaxScanTokenSize before the newline is one byte too many).
func TestParseLineLimit(t *testing.T) {
	for _, n := range []int{bufio.MaxScanTokenSize - 1, bufio.MaxScanTokenSize} {
		text := "machine " + strings.Repeat("m", n-len("machine ")) + "\ncluster 1 1 1 8\n"
		want, werr := refParse(strings.NewReader(text))
		got, gerr := ParseString(text)
		if errText(gerr) != errText(werr) || !reflect.DeepEqual(got, want) {
			t.Errorf("line of %d bytes: got %v, reference %v", n, gerr, werr)
		}
		if (gerr != nil) != (n >= bufio.MaxScanTokenSize) {
			t.Errorf("line of %d bytes: error %v", n, gerr)
		}
	}
}
