// Package gpsched is a reproduction of "Graph-Partitioning Based
// Instruction Scheduling for Clustered Processors" (Aletà, Codina, Sánchez,
// González — MICRO-34, 2001): modulo scheduling for clustered VLIW
// processors driven by a multilevel graph-partitioning cluster assignment.
//
// The public API wraps the implementation packages:
//
//   - build a loop's data dependence graph with NewLoop / (*DDG).AddNode /
//     (*DDG).AddEdge, or parse one with ReadLoops;
//   - pick a machine with Unified / Clustered (the paper's Table 1
//     configurations) or construct a machine.Config directly;
//   - schedule with Run, choosing the algorithm: GP (the paper's scheme),
//     FixedPartition, or URACAM (the baseline it improves upon);
//   - reproduce the paper's evaluation with the workload corpus
//     (SPECfp95Corpus) and the experiment harness (see cmd/gpbench and
//     bench_test.go).
//
// Quick start:
//
//	g := gpsched.NewLoop("daxpy", 1000)
//	x := g.AddNode(gpsched.Load, "x[i]")
//	y := g.AddNode(gpsched.Load, "y[i]")
//	m := g.AddNode(gpsched.FPMul, "a*x")
//	a := g.AddNode(gpsched.FPAdd, "+y")
//	s := g.AddNode(gpsched.Store, "y[i]=")
//	g.AddDep(x, m, 0)
//	g.AddDep(m, a, 0)
//	g.AddDep(y, a, 0)
//	g.AddDep(a, s, 0)
//	res, err := gpsched.Run(g, gpsched.Clustered(2, 64, 1, 1), nil)
package gpsched

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/ddgio"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/workload"
)

// Core graph and machine types.
type (
	// DDG is a loop's data dependence graph.
	DDG = ddg.Graph
	// Edge is a dependence: t(To) ≥ t(From) + Lat − II·Dist.
	Edge = ddg.Edge
	// EdgeKind distinguishes register data dependences from memory
	// ordering dependences.
	EdgeKind = ddg.EdgeKind
	// Machine is a clustered VLIW configuration.
	Machine = machine.Config
	// OpClass is an operation class (IntALU, Load, ...).
	OpClass = isa.OpClass
	// Schedule is a finished modulo (or list) schedule.
	Schedule = schedule.Schedule
	// Result is the outcome of scheduling one loop.
	Result = core.Result
	// Options configures Run; the zero value is the paper's GP scheme.
	Options = core.Options
	// Algorithm selects GP, FixedPartition or URACAM.
	Algorithm = core.Algorithm
	// PartitionOptions tunes the graph partitioner (ablations).
	PartitionOptions = partition.Options
	// PartitionResult is a cluster assignment with its IIbus bound.
	PartitionResult = partition.Result
	// Benchmark is a named set of weighted loops.
	Benchmark = workload.Benchmark
	// Loop pairs a DDG with its execution weight.
	Loop = workload.Loop
	// ClusterSpec is the per-cluster resource mix of a heterogeneous
	// machine.
	ClusterSpec = machine.ClusterSpec
	// Topology selects the interconnect model (SharedBus or PointToPoint).
	Topology = machine.Topology
)

// Interconnect topologies.
const (
	SharedBus    = machine.SharedBus
	PointToPoint = machine.PointToPoint
)

// Operation classes.
const (
	IntALU = isa.IntALU
	IntMul = isa.IntMul
	FPAdd  = isa.FPAdd
	FPMul  = isa.FPMul
	FPDiv  = isa.FPDiv
	Load   = isa.Load
	Store  = isa.Store
)

// Edge kinds.
const (
	Data = ddg.Data
	Mem  = ddg.Mem
)

// Algorithms.
const (
	GP             = core.GP
	FixedPartition = core.FixedPartition
	URACAM         = core.URACAM
)

// NewLoop returns an empty DDG with a name and profiled trip count.
func NewLoop(name string, niter int) *DDG { return ddg.New(name, niter) }

// Unified returns the paper's unified (single-cluster) baseline machine.
func Unified(totalRegs int) *Machine { return machine.NewUnified(totalRegs) }

// Clustered returns an n-cluster 12-issue machine with totalRegs registers
// split evenly and nbus buses of latency latBus. It panics on parameters
// that do not divide evenly; use machine.NewClustered for error returns.
func Clustered(n, totalRegs, nbus, latBus int) *Machine {
	return machine.MustClustered(n, totalRegs, nbus, latBus)
}

// Run schedules one loop on a machine. opts may be nil (GP defaults).
func Run(g *DDG, m *Machine, opts *Options) (*Result, error) {
	return core.ScheduleLoop(g, m, opts)
}

// RunContext is Run with cancellation: a canceled context stops the II
// escalation search between scheduling attempts.
func RunContext(ctx context.Context, g *DDG, m *Machine, opts *Options) (*Result, error) {
	return core.ScheduleLoopContext(ctx, g, m, opts)
}

// Partition computes only the cluster assignment for a loop at the given
// II (use g.MII(m) for the paper's entry point), without scheduling.
func Partition(g *DDG, m *Machine, ii int, opts *PartitionOptions) *PartitionResult {
	return partition.New(g, m, opts).Partition(ii)
}

// MII returns the loop's minimum initiation interval on m.
func MII(g *DDG, m *Machine) int { return g.MII(m) }

// Hetero returns a heterogeneous machine: one ClusterSpec per cluster,
// connected by nbus buses (SharedBus) or per-pair links (PointToPoint) of
// latency latBus, optionally pipelined.
func Hetero(name string, specs []ClusterSpec, topo Topology, nbus, latBus int, pipelined bool) (*Machine, error) {
	return machine.NewHetero(name, specs, topo, nbus, latBus, pipelined)
}

// Verify validates a complete schedule against the dependence graph and
// machine, independently of the scheduler that produced it: dependences
// under the actual value routing, per-cluster unit and memory-port
// occupancy, interconnect occupancy, and register pressure. Tests use it as
// a differential oracle over every scheme × machine × loop.
func Verify(g *DDG, m *Machine, s *Schedule) error { return schedule.Verify(g, m, s) }

// SPECfp95Corpus generates the deterministic synthetic stand-in for the
// paper's SPECfp95 evaluation corpus (package internal/workload documents
// the substitution).
func SPECfp95Corpus() []*Benchmark { return workload.SPECfp95() }

// DSPCorpus generates the deterministic integer-heavy DSP/MediaBench-style
// corpus: small loop bodies, deep recurrences, large trip counts.
func DSPCorpus() []*Benchmark { return workload.DSP() }

// ReadLoops parses loops from the ddgio text format.
func ReadLoops(r io.Reader) ([]*DDG, error) { return ddgio.Read(r) }

// WriteLoops serializes loops to the ddgio text format.
func WriteLoops(w io.Writer, loops ...*DDG) error { return ddgio.Write(w, loops...) }

// ReadMachine parses one machine description in the text format of
// machine.Parse (see FormatMachine for the canonical form).
func ReadMachine(r io.Reader) (*Machine, error) { return machine.Parse(r) }

// FormatMachine renders a machine in the text description format.
func FormatMachine(m *Machine) string { return machine.Format(m) }

// JSON wire format. LoopJSON is the JSON encoding of one loop DDG;
// ScheduleRequest/ScheduleResponse and SweepRequest are the stable
// request/response bodies of the gpserved HTTP API (POST /v1/schedule and
// POST /v1/sweep — see cmd/gpserved and the README's "HTTP API" section).
type (
	// LoopJSON is the JSON encoding of one loop DDG.
	LoopJSON = ddgio.JSONLoop
	// ScheduleRequest is the body of POST /v1/schedule.
	ScheduleRequest = server.ScheduleRequest
	// ScheduleResponse is the body of a successful POST /v1/schedule.
	ScheduleResponse = server.ScheduleResponse
	// SweepRequest is the body of POST /v1/sweep.
	SweepRequest = server.SweepRequest
)

// ReadLoopsJSON parses loops from the JSON wire format: an array of loop
// objects or a single loop object.
func ReadLoopsJSON(r io.Reader) ([]*DDG, error) { return ddgio.ReadJSON(r) }

// WriteLoopsJSON serializes loops as one JSON array.
func WriteLoopsJSON(w io.Writer, loops ...*DDG) error { return ddgio.WriteJSON(w, loops...) }
