package schedule

// AlgoVersion identifies the generation of the scheduling algorithms this
// binary implements. It is part of the served content address: gpserved
// salts every cache key with it and advertises it to the coordinator, so a
// mixed-version fleet can never silently serve bytes computed by a
// different algorithm under the same key.
//
// Bump it on ANY change that can alter an emitted schedule — partitioner
// candidate screening, tie-breaks, scheduler placement order, register
// allocation, list fallback — even when the change is "only" a performance
// refactor that is believed selection-neutral. The cache and the fleet's
// shadow-verify canary treat two binaries with the same AlgoVersion as
// byte-interchangeable; an unbumped behavioral change is exactly the silent
// stale-cache bug this constant exists to prevent.
//
// History:
//
//	gp/1  the original PR 1–2 schedulers
//	gp/2  incremental allocation-free partition refinement (apply/undo move
//	      engine, three-stage candidate screening, map-order tie-break fix)
//	gp/3  allocation-free placement probes and pooled attempt scratch (dense
//	      slot deltas, recycled plans and value views, merits sorted once
//	      per plan); internal/core/testdata/schedule_digests.txt shows every
//	      schedule byte-identical to gp/2, bumped per the rule above
//	gp/4  coarsening matching on reachable states only (memoized exact DP)
//	      and out of arena-owned scratch (greedy order, 2-exchange best-edge
//	      index, Matching result); every digest byte-identical to gp/3,
//	      bumped per the rule above
//	gp/5  the II escalation stops at the length of the list schedule of the
//	      failed MII attempt's assignment (paper §4.1): one schedule moves,
//	      4-cluster/32reg/1bus/lat2 GP adpcm/loop0 from modulo II 16 to the
//	      shorter list SL 15, and 209 fallback cells make fewer attempts;
//	      the list scheduler's scratch no longer allocates per cluster or
//	      per node, same bytes
//	gp/6  refinement candidates screened by a read-only probe of the
//	      resource and interconnect IIs (only survivors are applied,
//	      estimated and undone), and longest paths relaxed once per SCC in
//	      topological order; the digest golden is unchanged and the
//	      screening tallies are identical
//	gp/7  refinement's screening bound adds a term from a critical path of
//	      the current assignment, a repartition whose coarsening levels and
//	      II range certify the previous refinement's answer reuses it, the
//	      placement probe's register check visits the cluster that failed
//	      the last check first, and coarsening collapses edges without a
//	      map; every digest byte-identical to gp/6, bumped per the rule
//	      above
//	gp/8  a transform loop stops once its routing state repeats (Brent's
//	      cycle detection over exact snapshots) and replays the rest of the
//	      cycle up to the budget's end state, so the schedule, the failure
//	      and Transforms equal the uncut loop's; every digest
//	      byte-identical to gp/7, bumped per the rule above
//	gp/9  the partitioner's delay(e) edge weight takes the closed form
//	      max(0, LatBus − slack) on every data edge outside a recurrence and
//	      probes only the edges inside one; every weight equals the probe's
//	      and every digest is byte-identical to gp/8, bumped per the rule
//	      above
//	gp/10 the placement probe's register check and its commit cover only the
//	      (value, cluster) pairs a plan changes, settle most clusters by the
//	      cached MaxLive plus Σ⌈len/II⌉ over the added spans, and walk only
//	      the slots the added spans cover otherwise; the reservation table
//	      keeps running free-slot totals, the figure of merit is sorted
//	      without a closure, and the SMS groups are cached per loop on the
//	      graph; every digest byte-identical to gp/9, bumped per the rule
//	      above
//	gp/11 a partition pays only for what changes: refinement screens a
//	      candidate that moves neither group owning an endpoint of the
//	      critical path's data edges without walking the path, derives its
//	      resource II from per-cluster IIs tabulated once per iteration,
//	      scans interchange partners from per-cluster group lists and drops
//	      the iteration's ALAP pass; coarsening collapses each level's edges
//	      from the level below and takes neighbor rows from them, the greedy
//	      matching sorts packed integer keys, and 2-exchange visits only
//	      adjacent matched edges; every move, screening tally and digest is
//	      identical to gp/10, bumped per the rule above
const AlgoVersion = "gp/11"
