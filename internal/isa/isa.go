// Package isa defines the operation classes and functional-unit kinds shared
// by the data-dependence-graph and machine-model packages.
//
// The paper's machine model (MICRO-34, Table 1) groups operations into three
// functional-unit kinds — integer, floating point and memory — and assigns
// each operation class a fixed latency. The latencies used here follow the
// values used across the UPC clustered-VLIW modulo-scheduling papers
// (Sánchez & González; Codina, Sánchez & González): single-cycle integer
// arithmetic, multi-cycle floating point, two-cycle loads and single-cycle
// stores. Table 1's latency entries are not legible in the archival scan, so
// the exact values are configurable per machine (see package machine); the
// defaults below are used throughout the reproduction.
package isa

import (
	"fmt"
	"strings"
)

// OpClass identifies the class of an operation in a loop body. The class
// determines which functional-unit kind executes the operation and its
// default latency.
type OpClass int8

// Operation classes. Copy is an inter-cluster register move; it is only
// created by the scheduler when routing a communication and never appears in
// source DDGs.
const (
	IntALU OpClass = iota // integer add/sub/logic/compare
	IntMul                // integer multiply
	FPAdd                 // floating-point add/sub/convert
	FPMul                 // floating-point multiply
	FPDiv                 // floating-point divide/sqrt
	Load                  // memory load
	Store                 // memory store
	Copy                  // inter-cluster copy (bus transfer)

	NumOpClasses = int(Copy) + 1
)

var opClassNames = [...]string{"IntALU", "IntMul", "FPAdd", "FPMul", "FPDiv", "Load", "Store", "Copy"}

// String returns the mnemonic name of the class.
func (c OpClass) String() string {
	if c < 0 || int(c) >= len(opClassNames) {
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
	return opClassNames[c]
}

// ParseOpClass parses a class mnemonic, ignoring case as strings.EqualFold
// does ("load", "LOAD" and "Load" are all Load). It reports false for an
// unknown mnemonic.
func ParseOpClass(s string) (OpClass, bool) {
	for c, name := range opClassNames {
		if s == name {
			return OpClass(c), true
		}
	}
	for c, name := range opClassNames {
		if strings.EqualFold(name, s) {
			return OpClass(c), true
		}
	}
	return 0, false
}

// Valid reports whether c is one of the defined operation classes.
func (c OpClass) Valid() bool { return c >= 0 && int(c) < NumOpClasses }

// ProducesValue reports whether operations of this class define a register
// value that downstream operations may read. Stores write memory only.
func (c OpClass) ProducesValue() bool { return c != Store }

// UnitKind identifies one of the three functional-unit kinds of the paper's
// clustered VLIW machine.
type UnitKind int8

// Functional-unit kinds. BusUnit is not a per-cluster functional unit; it
// names the shared inter-cluster bus for resource accounting.
const (
	IntUnit UnitKind = iota
	FPUnit
	MemUnit

	NumUnitKinds = int(MemUnit) + 1
)

var unitKindNames = [...]string{"INT", "FP", "MEM"}

// String returns the short name of the unit kind.
func (k UnitKind) String() string {
	if k < 0 || int(k) >= len(unitKindNames) {
		return fmt.Sprintf("UnitKind(%d)", int(k))
	}
	return unitKindNames[k]
}

// Unit returns the functional-unit kind that executes operations of class c.
// Copy operations use the inter-cluster bus, which is not a functional unit;
// Unit reports IntUnit for them only so that every class maps somewhere, and
// callers must special-case Copy (the scheduler does).
func (c OpClass) Unit() UnitKind {
	switch c {
	case IntALU, IntMul, Copy:
		return IntUnit
	case FPAdd, FPMul, FPDiv:
		return FPUnit
	case Load, Store:
		return MemUnit
	}
	return IntUnit
}

// DefaultLatency returns the default producer latency, in cycles, of an
// operation of class c: the number of cycles after issue at which the
// produced value (or, for stores, the memory effect) becomes available.
func DefaultLatency(c OpClass) int {
	switch c {
	case IntALU:
		return 1
	case IntMul:
		return 2
	case FPAdd:
		return 3
	case FPMul:
		return 4
	case FPDiv:
		return 8
	case Load:
		return 2
	case Store:
		return 1
	case Copy:
		return 1
	}
	return 1
}

// DefaultLatencies returns the default latency table indexed by OpClass.
func DefaultLatencies() [NumOpClasses]int {
	var t [NumOpClasses]int
	for c := 0; c < NumOpClasses; c++ {
		t[c] = DefaultLatency(OpClass(c))
	}
	return t
}
