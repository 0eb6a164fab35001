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
const AlgoVersion = "gp/5"
