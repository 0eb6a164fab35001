// Package machine describes clustered VLIW processor configurations.
//
// The paper's evaluation grid (MICRO-34, Table 1) is homogeneous: every
// configuration is 12-issue with the same total resources divided evenly
// among the clusters,
//
//	unified:   1 cluster  × (4 INT, 4 FP, 4 MEM), all registers
//	2-cluster: 2 clusters × (2 INT, 2 FP, 2 MEM), half the registers each
//	4-cluster: 4 clusters × (1 INT, 1 FP, 1 MEM), a quarter of the registers each
//
// communicating over NBus shared, non-pipelined buses of latency LatBus.
// The paper's motivating hardware (TI C6x, TigerSHARC, Lx — §1) is not
// homogeneous, so the model also supports
//
//   - per-cluster functional-unit mixes and register-file sizes
//     (PerCluster), e.g. an integer-heavy cluster next to an FP-heavy one;
//   - a pipelined shared bus (Pipelined: a transfer occupies a bus for one
//     issue slot instead of LatBus consecutive cycles, latency unchanged);
//   - per-cluster-pair point-to-point links (PointToPoint: NBus parallel
//     links per ordered cluster pair instead of a shared broadcast bus).
//
// Machines can be described in a small line-oriented text format (Parse /
// Format) so the command-line tools can load arbitrary configurations.
// The memory hierarchy is shared by all clusters and perfect (every access
// hits), exactly as in the paper's evaluation.
package machine

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/isa"
	"repro/internal/textline"
)

// Topology selects the inter-cluster interconnect model.
type Topology int8

const (
	// SharedBus is the paper's interconnect: NBus shared buses; a transfer
	// broadcasts its value to every other cluster.
	SharedBus Topology = iota
	// PointToPoint replaces the shared buses with NBus dedicated links per
	// ordered cluster pair; a transfer delivers to exactly one destination.
	PointToPoint
)

// String returns "bus" or "p2p", the mnemonics of the text format.
func (t Topology) String() string {
	if t == PointToPoint {
		return "p2p"
	}
	return "bus"
}

// ClusterSpec is the resource mix of one cluster of a heterogeneous
// machine.
type ClusterSpec struct {
	// Units holds the number of functional units of each kind.
	Units [isa.NumUnitKinds]int
	// Regs is the size of the cluster's register file.
	Regs int
}

// Config describes one clustered VLIW configuration. The zero value is not a
// valid configuration; use one of the constructors or fill every field and
// call Validate.
type Config struct {
	// Name identifies the configuration in tables and benchmark output,
	// e.g. "2-cluster/32reg/1bus/lat1".
	Name string

	// Clusters is the number of clusters (1 for the unified machine).
	Clusters int

	// Units holds the number of functional units of each kind per cluster
	// for homogeneous machines. It is ignored when PerCluster is set.
	Units [isa.NumUnitKinds]int

	// RegsPerCluster is the number of registers in each cluster's register
	// file for homogeneous machines. It is ignored when PerCluster is set.
	RegsPerCluster int

	// PerCluster, when non-nil, gives each cluster its own unit mix and
	// register file; its length must equal Clusters. Nil means the
	// homogeneous Units/RegsPerCluster fields apply to every cluster.
	PerCluster []ClusterSpec

	// Topology selects the interconnect model (SharedBus or PointToPoint).
	Topology Topology

	// NBus is the number of inter-cluster buses (SharedBus) or the number
	// of parallel links per ordered cluster pair (PointToPoint). Zero is
	// only valid for the unified configuration.
	NBus int

	// LatBus is the latency, in cycles, of an inter-cluster transfer.
	LatBus int

	// Pipelined makes the interconnect accept a new transfer every cycle:
	// a transfer occupies its bus or link for a single issue slot instead
	// of LatBus consecutive cycles. Latency is unchanged.
	Pipelined bool

	// Latency maps each operation class to its producer latency in cycles.
	Latency [isa.NumOpClasses]int
}

// NewUnified returns the paper's unified baseline: a single cluster holding
// all twelve functional units and all totalRegs registers. It has no
// inter-cluster bus.
func NewUnified(totalRegs int) *Config {
	return &Config{
		Name:           fmt.Sprintf("unified/%dreg", totalRegs),
		Clusters:       1,
		Units:          [isa.NumUnitKinds]int{4, 4, 4},
		RegsPerCluster: totalRegs,
		NBus:           0,
		LatBus:         0,
		Latency:        isa.DefaultLatencies(),
	}
}

// UnifiedOf returns the unified (single-cluster) counterpart of m: one
// cluster holding m's machine-wide functional units and registers, with m's
// latency table. It is the upper-bound baseline the experiment harness
// compares clustered machines against.
func UnifiedOf(m *Config) *Config {
	var units [isa.NumUnitKinds]int
	for k := 0; k < isa.NumUnitKinds; k++ {
		units[k] = m.TotalUnits(isa.UnitKind(k))
	}
	return &Config{
		Name:           fmt.Sprintf("unified-of/%s", m.Name),
		Clusters:       1,
		Units:          units,
		RegsPerCluster: m.TotalRegs(),
		Latency:        m.Latency,
	}
}

// NewClustered returns an n-cluster 12-issue configuration with totalRegs
// registers split evenly, nbus inter-cluster buses of latency latBus.
// n must divide 4 (the per-kind unit count of the unified machine) and
// totalRegs must divide evenly by n.
func NewClustered(n, totalRegs, nbus, latBus int) (*Config, error) {
	switch {
	case n < 1:
		return nil, fmt.Errorf("machine: cluster count %d < 1", n)
	case 4%n != 0:
		return nil, fmt.Errorf("machine: cluster count %d does not divide the 12-issue machine evenly", n)
	case totalRegs%n != 0:
		return nil, fmt.Errorf("machine: %d registers do not split evenly over %d clusters", totalRegs, n)
	case n > 1 && nbus < 1:
		return nil, fmt.Errorf("machine: clustered configuration requires at least one bus")
	case n > 1 && latBus < 1:
		return nil, fmt.Errorf("machine: bus latency %d < 1", latBus)
	}
	per := 4 / n
	c := &Config{
		Name:           fmt.Sprintf("%d-cluster/%dreg/%dbus/lat%d", n, totalRegs, nbus, latBus),
		Clusters:       n,
		Units:          [isa.NumUnitKinds]int{per, per, per},
		RegsPerCluster: totalRegs / n,
		NBus:           nbus,
		LatBus:         latBus,
		Latency:        isa.DefaultLatencies(),
	}
	if n == 1 {
		c.NBus, c.LatBus = 0, 0
		c.Name = fmt.Sprintf("unified/%dreg", totalRegs)
	}
	return c, nil
}

// MustClustered is NewClustered but panics on invalid parameters. It is
// intended for the fixed, known-good configurations used in tests, examples
// and benchmarks.
func MustClustered(n, totalRegs, nbus, latBus int) *Config {
	c, err := NewClustered(n, totalRegs, nbus, latBus)
	if err != nil {
		panic(err)
	}
	return c
}

// NewHetero returns a heterogeneous machine: one ClusterSpec per cluster,
// connected by the given interconnect. Latencies are the defaults; mutate
// Latency afterwards for custom tables.
func NewHetero(name string, specs []ClusterSpec, topo Topology, nbus, latBus int, pipelined bool) (*Config, error) {
	c := &Config{
		Name:       name,
		Clusters:   len(specs),
		PerCluster: append([]ClusterSpec(nil), specs...),
		Topology:   topo,
		NBus:       nbus,
		LatBus:     latBus,
		Pipelined:  pipelined,
		Latency:    isa.DefaultLatencies(),
	}
	if c.Clusters == 1 {
		c.NBus, c.LatBus, c.Pipelined = 0, 0, false
		c.Topology = SharedBus
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustHetero is NewHetero but panics on invalid parameters.
func MustHetero(name string, specs []ClusterSpec, topo Topology, nbus, latBus int, pipelined bool) *Config {
	c, err := NewHetero(name, specs, topo, nbus, latBus, pipelined)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate checks internal consistency of a hand-built configuration.
func (c *Config) Validate() error {
	if c.Clusters < 1 {
		return fmt.Errorf("machine %q: cluster count %d < 1", c.Name, c.Clusters)
	}
	if c.PerCluster != nil && len(c.PerCluster) != c.Clusters {
		return fmt.Errorf("machine %q: %d cluster specs for %d clusters", c.Name, len(c.PerCluster), c.Clusters)
	}
	if c.Topology != SharedBus && c.Topology != PointToPoint {
		return fmt.Errorf("machine %q: unknown topology %d", c.Name, int(c.Topology))
	}
	for cl := 0; cl < c.Clusters; cl++ {
		total := 0
		for k := 0; k < isa.NumUnitKinds; k++ {
			u := c.UnitsIn(cl, isa.UnitKind(k))
			if u < 0 {
				return fmt.Errorf("machine %q: cluster %d has negative %s unit count", c.Name, cl, isa.UnitKind(k))
			}
			total += u
		}
		if total == 0 {
			return fmt.Errorf("machine %q: cluster %d has no functional units", c.Name, cl)
		}
		if c.RegsIn(cl) < 1 {
			return fmt.Errorf("machine %q: cluster %d has %d registers", c.Name, cl, c.RegsIn(cl))
		}
	}
	if c.Clusters > 1 {
		if c.NBus < 1 {
			return fmt.Errorf("machine %q: clustered but no interconnect", c.Name)
		}
		if c.LatBus < 1 {
			return fmt.Errorf("machine %q: transfer latency %d < 1", c.Name, c.LatBus)
		}
	}
	for cl := 0; cl < isa.NumOpClasses; cl++ {
		if c.Latency[cl] < 1 {
			return fmt.Errorf("machine %q: latency %d for %s", c.Name, c.Latency[cl], isa.OpClass(cl))
		}
	}
	return nil
}

// OpLatency returns the producer latency of an operation of class op.
func (c *Config) OpLatency(op isa.OpClass) int { return c.Latency[op] }

// Heterogeneous reports whether the machine has per-cluster resource
// overrides.
func (c *Config) Heterogeneous() bool { return c.PerCluster != nil }

// UnitsIn returns the number of functional units of kind k in cluster cl.
func (c *Config) UnitsIn(cl int, k isa.UnitKind) int {
	if c.PerCluster != nil {
		return c.PerCluster[cl].Units[k]
	}
	return c.Units[k]
}

// RegsIn returns the register-file size of cluster cl.
func (c *Config) RegsIn(cl int) int {
	if c.PerCluster != nil {
		return c.PerCluster[cl].Regs
	}
	return c.RegsPerCluster
}

// UnitsPerCluster returns the per-cluster unit count of kind k on a
// homogeneous machine. Consumers that know the cluster should use UnitsIn,
// which also handles heterogeneous machines; for those, UnitsPerCluster
// returns the maximum over clusters.
func (c *Config) UnitsPerCluster(k isa.UnitKind) int {
	if c.PerCluster == nil {
		return c.Units[k]
	}
	max := 0
	for cl := range c.PerCluster {
		if u := c.PerCluster[cl].Units[k]; u > max {
			max = u
		}
	}
	return max
}

// TotalUnits returns the machine-wide number of functional units of kind k.
func (c *Config) TotalUnits(k isa.UnitKind) int {
	if c.PerCluster == nil {
		return c.Units[k] * c.Clusters
	}
	n := 0
	for cl := range c.PerCluster {
		n += c.PerCluster[cl].Units[k]
	}
	return n
}

// TotalRegs returns the machine-wide register count.
func (c *Config) TotalRegs() int {
	if c.PerCluster == nil {
		return c.RegsPerCluster * c.Clusters
	}
	n := 0
	for cl := range c.PerCluster {
		n += c.PerCluster[cl].Regs
	}
	return n
}

// IssueWidth returns the machine-wide issue width, which equals the total
// number of functional units (each unit issues one operation per cycle).
func (c *Config) IssueWidth() int {
	n := 0
	for k := 0; k < isa.NumUnitKinds; k++ {
		n += c.TotalUnits(isa.UnitKind(k))
	}
	return n
}

// XferOccupancy returns the number of consecutive cycles one transfer
// occupies its bus or link: LatBus for the paper's non-pipelined
// interconnect, 1 when pipelined.
func (c *Config) XferOccupancy() int {
	if c.Pipelined {
		return 1
	}
	return c.LatBus
}

// Channels returns the number of independent transfer channels: 1 for the
// shared-bus pool, one per ordered cluster pair for point-to-point links.
func (c *Config) Channels() int {
	if c.Topology == PointToPoint {
		return c.Clusters * (c.Clusters - 1)
	}
	if c.Clusters <= 1 {
		return 0
	}
	return 1
}

// String returns the configuration name.
func (c *Config) String() string { return c.Name }

// Table1 returns the three processor configurations of the paper's Table 1
// for a given total register count: unified, 2-cluster and 4-cluster, each
// 12-issue with resources split homogeneously, with nbus buses of latency
// latBus for the clustered machines.
func Table1(totalRegs, nbus, latBus int) []*Config {
	return []*Config{
		NewUnified(totalRegs),
		MustClustered(2, totalRegs, nbus, latBus),
		MustClustered(4, totalRegs, nbus, latBus),
	}
}

// SweepSet returns the default machine grid of `gpbench -sweep`: the paper's
// Table-1 4-cluster configuration, a heterogeneous C6x-flavored two-cluster
// machine (uneven unit mixes and register files), a pipelined-bus variant
// and a point-to-point variant. Every machine keeps at least one unit of
// each kind machine-wide so both corpora are schedulable everywhere.
func SweepSet() []*Config {
	het := MustHetero("c6x-het/2x6w/24+40reg/1bus/lat1",
		[]ClusterSpec{
			{Units: [isa.NumUnitKinds]int{3, 1, 2}, Regs: 24},
			{Units: [isa.NumUnitKinds]int{1, 3, 2}, Regs: 40},
		}, SharedBus, 1, 1, false)
	pipe := MustClustered(4, 64, 1, 2)
	pipe.Pipelined = true
	pipe.Name = "4-cluster/64reg/1pbus/lat2"
	p2p := MustClustered(4, 64, 1, 1)
	p2p.Topology = PointToPoint
	p2p.Name = "4-cluster/64reg/p2p/lat1"
	return []*Config{
		MustClustered(4, 64, 1, 1),
		het,
		pipe,
		p2p,
	}
}

// Format renders the machine in the text description format read by Parse:
//
//	machine <name>
//	cluster <int> <fp> <mem> <regs>        # one line per cluster, in order
//	interconnect <bus|p2p> <n> <lat> <pipelined|blocking>
//	latency <opclass> <cycles>             # one line per operation class
//
// Unified machines omit the interconnect line. Format output always
// re-parses to an equivalent configuration.
func Format(c *Config) string {
	return string(AppendFormat(make([]byte, 0, 256), c))
}

// AppendFormat appends the Format text of c to dst and returns the extended
// buffer. It is the one canonical rendering: Format returns it and the
// gpserved cache key hashes it.
func AppendFormat(dst []byte, c *Config) []byte {
	dst = append(dst, "machine "...)
	dst = appendName(dst, c.Name)
	dst = append(dst, '\n')
	for cl := 0; cl < c.Clusters; cl++ {
		dst = append(dst, "cluster "...)
		dst = strconv.AppendInt(dst, int64(c.UnitsIn(cl, isa.IntUnit)), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(c.UnitsIn(cl, isa.FPUnit)), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(c.UnitsIn(cl, isa.MemUnit)), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(c.RegsIn(cl)), 10)
		dst = append(dst, '\n')
	}
	if c.Clusters > 1 {
		dst = append(dst, "interconnect "...)
		dst = append(dst, c.Topology.String()...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(c.NBus), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(c.LatBus), 10)
		if c.Pipelined {
			dst = append(dst, " pipelined\n"...)
		} else {
			dst = append(dst, " blocking\n"...)
		}
	}
	for op := 0; op < isa.NumOpClasses; op++ {
		dst = append(dst, "latency "...)
		dst = append(dst, isa.OpClass(op).String()...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(c.Latency[op]), 10)
		dst = append(dst, '\n')
	}
	return dst
}

// appendName appends the machine name so that it survives strings.Fields
// on the way back in: every white-space rune becomes an underscore, and an
// unnamed machine is "machine".
func appendName(dst []byte, name string) []byte {
	if name == "" {
		return append(dst, "machine"...)
	}
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			// strings.Map also turns invalid UTF-8 into U+FFFD.
			return append(dst, strings.Map(func(r rune) rune {
				if unicode.IsSpace(r) {
					return '_'
				}
				return r
			}, name)...)
		}
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if unicode.IsSpace(rune(c)) {
			c = '_'
		}
		dst = append(dst, c)
	}
	return dst
}

// Parse reads one machine description in the Format text format. Latency
// lines are optional (defaults apply); the interconnect line is optional for
// single-cluster machines. The parsed configuration is validated. Parse
// reads all of r before it parses.
func Parse(r io.Reader) (*Config, error) {
	text, err := textline.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	return ParseString(text)
}

// ParseString is Parse over an in-memory description. The machine name is
// a substring of s.
func ParseString(s string) (*Config, error) {
	c := &Config{Latency: isa.DefaultLatencies()}
	// Every cluster line holds the word, so its count bounds theirs.
	if n := strings.Count(s, "cluster"); n > 0 {
		c.PerCluster = make([]ClusterSpec, 0, min(n, 16))
	}
	sawName := false
	sc := textline.NewScanner(s, bufio.MaxScanTokenSize)
	var l textline.Line
	for sc.Scan(&l) {
		lineno, fields := l.No, &l.F
		switch fields[0] {
		case "machine":
			if l.N != 2 {
				return nil, fmt.Errorf("machine: line %d: machine wants <name>", lineno)
			}
			if sawName {
				return nil, fmt.Errorf("machine: line %d: duplicate machine line", lineno)
			}
			c.Name = fields[1]
			sawName = true
		case "cluster":
			if l.N != 5 {
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
			if l.N != 5 {
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
			if l.N != 3 {
				return nil, fmt.Errorf("machine: line %d: latency wants <opclass> <cycles>", lineno)
			}
			op, ok := isa.ParseOpClass(fields[1])
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
