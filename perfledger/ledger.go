package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Spans of one operation share id; parent links a span
// to the span whose interval contains it (-1 for a root, or for a span
// whose parent has not been resolved yet).
type span struct {
	Name   string `json:"name"` // "<layer>.<call>"; the layer is the text before the first dot
	ID     string `json:"id"`
	Note   string `json:"note,omitempty"`
	Phase  string `json:"phase,omitempty"` // "fill" or "timed" on fleet-zipf
	Start  int64  `json:"start_ns"`        // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while tracing is on; the traced run writes
// them out once it ends.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now returns the recorder clock: monotonic nanoseconds since its epoch
// (0 on a nil recorder).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// add records s and returns its index, or -1 when recording is off. A nil
// recorder records nothing, which is how untraced runs call it.
func (r *recorder) add(s span) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// take returns the spans recorded so far and starts a new batch.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur() - covered(spans, i, children[i])
	}
	return self
}

// covered is the length of the union of the kids' intervals clipped to the
// parent's interval.
func covered(spans []span, parent int, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	lo, hi := spans[parent].Start, spans[parent].End
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// ledger folds the spans of one run into self time per span name. The
// roots are the end-to-end operations; every other span's self time is
// attributed to its layer, and a root's own self time is the benchmark's
// glue between layer calls — the unattributed residual.
type ledger struct {
	self       map[string]int64 // span name → summed self time (ns)
	calls      map[string]int   // span name → spans folded
	rootName   string
	roots      int
	rootTotal  int64 // summed root durations (ns)
	escaped    int64 // child time outside its parent or double-covered (ns)
	unstitched int   // non-root spans that found no parent
}

// reconcileTolerancePct is the most the layers' self times may miss the
// root spans by, as a share of the summed root durations: the unattributed
// residual and any child time escaping its parent must each stay below it.
const reconcileTolerancePct = 2.0

func buildLedger(spans []span, rootName string) ledger {
	l := ledger{self: map[string]int64{}, calls: map[string]int{}, rootName: rootName}
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == rootName:
			l.roots++
			l.rootTotal += s.dur()
		case s.Parent < 0:
			l.unstitched++
			continue
		}
		l.self[s.Name] += self[i]
		l.calls[s.Name]++
	}
	// With children nested inside their parents and disjoint from their
	// siblings, Σ self = Σ root durations exactly; anything above that is
	// child time the parents did not cover.
	var selfSum int64
	for _, v := range l.self {
		selfSum += v
	}
	l.escaped = selfSum - l.rootTotal
	return l
}

// unattributedPct is the roots' own self time as a share of their total.
func (l ledger) unattributedPct() float64 {
	if l.rootTotal == 0 {
		return 0
	}
	return 100 * float64(l.self[l.rootName]) / float64(l.rootTotal)
}

// reconciles reports whether the layers account for the roots within
// reconcileTolerancePct.
func (l ledger) reconciles() bool {
	if l.rootTotal == 0 {
		return false
	}
	escapedPct := 100 * float64(l.escaped) / float64(l.rootTotal)
	return l.unattributedPct() <= reconcileTolerancePct && math.Abs(escapedPct) <= reconcileTolerancePct
}

// meanSelf is the mean self time of the named spans, in ns.
func (l ledger) meanSelf(name string) float64 {
	if l.calls[name] == 0 {
		return 0
	}
	return float64(l.self[name]) / float64(l.calls[name])
}

// lines renders the ledger: every span name's self time per root operation
// and as a share of the roots' total, layers first and the root last.
func (l ledger) lines() []string {
	names := make([]string, 0, len(l.self))
	for n := range l.self {
		if n != l.rootName {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	names = append(names, l.rootName)
	out := []string{fmt.Sprintf("  ledger over %d operations (self time per operation, share of end-to-end):", l.roots)}
	for _, n := range names {
		label := n
		if n == l.rootName {
			label = n + " (unattributed)"
		}
		out = append(out, fmt.Sprintf("    %-34s %12.2f us  %6.2f%%  (%d spans)", label,
			float64(l.self[n])/float64(max(l.roots, 1))/1e3, pct(l.self[n], l.rootTotal), l.calls[n]))
	}
	out = append(out, fmt.Sprintf("    %-34s %12.2f us  100.00%%", "end-to-end", float64(l.rootTotal)/float64(max(l.roots, 1))/1e3))
	verdict := "reconciles"
	if !l.reconciles() {
		verdict = "DOES NOT reconcile"
	}
	out = append(out, fmt.Sprintf("  ledger %s within %.1f%%: unattributed %.3f%%, escaped child time %.3f%%, unstitched spans %d",
		verdict, reconcileTolerancePct, l.unattributedPct(), pct(l.escaped, l.rootTotal), l.unstitched))
	return out
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
