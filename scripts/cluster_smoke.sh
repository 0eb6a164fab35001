#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end cluster gate over the real binaries.
#
# Builds race-instrumented gpcoordd + gpserved, boots one coordinator and
# two workers, runs the `-sweep -short` equivalent as a distributed job
# ({"max_loops": 2, "verify": true} over the default machine set × both
# corpora), and requires the assembled CSV to be byte-identical to the
# committed single-node golden (internal/bench/testdata/
# sweep_short_golden.csv). Also checks cache-affine routing: the second of
# two identical /v1/schedule requests must be an X-Cache hit served by the
# same X-Node.
#
# Then the durability gate: a second job is submitted, the coordinator is
# kill -9'd mid-job, and a fresh gpcoordd on the same -journal directory
# and port must list the job as resumed, still serve the first job's CSV,
# and finish the second with CSV byte-identical to the same golden.
#
# Then the rolling-upgrade gate: one worker is restarted with a bumped
# -algo-version, the operator-style POST /v1/cache/flush must converge
# every worker on the new epoch, the same request must recompute (X-Cache
# miss, byte-identical to the pre-upgrade answer) instead of serving a
# stale pre-flush entry, and the always-on shadow verifier (-shadow-rate 1)
# must have sampled replays with zero mismatches.
#
# Then the hot-key gate: a third worker joins, a burst of identical
# requests for one fresh key hammers the fleet, and bounded-load placement
# (-load-bound 1.25) must spill the hot key past its overloaded HRW owner
# (gpcoordd_spills_total advances) while every response stays 200 (no
# shedding) and byte-identical. Finally all workers and the coordinator
# must drain gracefully (exit 0) on SIGTERM.
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

echo "== building race-instrumented binaries"
go build -race -o "$work" ./cmd/gpcoordd ./cmd/gpserved

wait_listen() { # logfile prefix -> base URL
    local log="$1" prefix="$2" addr="" tries=0
    while [ -z "$addr" ]; do
        addr="$(sed -n "s/^$prefix listening on //p" "$log" | head -1)"
        tries=$((tries + 1))
        if [ "$tries" -gt 200 ]; then
            echo "$prefix never started:" >&2
            cat "$log" >&2
            exit 1
        fi
        [ -n "$addr" ] || sleep 0.05
    done
    echo "http://$addr"
}

echo "== booting gpcoordd (journaled) + 2 gpserved workers"
journal="$work/smoke-journal"
"$work/gpcoordd" -addr 127.0.0.1:0 -heartbeat 500ms -journal "$journal" -shadow-rate 1 -load-bound 1.25 >"$work/coordd.log" 2>&1 &
pids+=($!)
coord_pid=$!
coord="$(wait_listen "$work/coordd.log" gpcoordd)"

"$work/gpserved" -addr 127.0.0.1:0 -coordinator "$coord" -node-id smoke-a >"$work/worker-a.log" 2>&1 &
pids+=($!)
wa_pid=$!
"$work/gpserved" -addr 127.0.0.1:0 -coordinator "$coord" -node-id smoke-b >"$work/worker-b.log" 2>&1 &
pids+=($!)
wb_pid=$!

for i in $(seq 1 200); do
    ready="$(curl -sf "$coord/v1/fleet/nodes" | grep -c '"state": "ready"' || true)"
    [ "$ready" = 2 ] && break
    if [ "$i" = 200 ]; then
        echo "fleet never became ready:" >&2
        curl -s "$coord/v1/fleet/nodes" >&2 || true
        exit 1
    fi
    sleep 0.05
done
echo "== fleet ready"

echo "== cache-affine routing through the coordinator"
req='{"loop_text": "loop smoke 100\nnode 0 Load a[i]\nnode 1 FPMul *c\nnode 2 FPAdd +s\nedge 0 1 2 0 data\nedge 1 2 4 0 data\nedge 2 2 4 1 data\n", "clusters": 2, "regs": 32, "nbus": 1, "latbus": 1}'
curl -sf -D "$work/h1" -o "$work/b1" "$coord/v1/schedule" -d "$req"
curl -sf -D "$work/h2" -o "$work/b2" "$coord/v1/schedule" -d "$req"
node1="$(tr -d '\r' <"$work/h1" | sed -n 's/^X-Node: //p')"
node2="$(tr -d '\r' <"$work/h2" | sed -n 's/^X-Node: //p')"
hit="$(tr -d '\r' <"$work/h2" | sed -n 's/^X-Cache: //p')"
[ -n "$node1" ] && [ "$node1" = "$node2" ] || { echo "routing not affine: '$node1' vs '$node2'" >&2; exit 1; }
[ "$hit" = hit ] || { echo "second identical request not a cache hit (X-Cache: $hit)" >&2; exit 1; }
cmp "$work/b1" "$work/b2" || { echo "cache hit bytes differ" >&2; exit 1; }

echo "== distributed /v1/schedule/batch matches a standalone single node byte-for-byte"
# The coordinator places each of a batch's loops by its own key, forwards
# one sub-batch per worker to that worker's batch endpoint and reassembles
# the streamed array from the replies; a standalone gpserved answers the
# same envelope in-process. The two bodies must be byte-identical,
# including the in-place error element for the malformed middle loop
# (per-loop partial failure, not a 400), which the coordinator renders
# without forwarding it.
"$work/gpserved" -addr 127.0.0.1:0 >"$work/standalone.log" 2>&1 &
pids+=($!)
sa_pid=$!
standalone="$(wait_listen "$work/standalone.log" gpserved)"
batch='{"clusters": 2, "regs": 32, "nbus": 1, "latbus": 1, "loops": [
  {"loop_text": "loop smoke 100\nnode 0 Load a[i]\nnode 1 FPMul *c\nnode 2 FPAdd +s\nedge 0 1 2 0 data\nedge 1 2 4 0 data\nedge 2 2 4 1 data\n"},
  {"loop_text": "loop broken"},
  {"loop_text": "loop smoke2 64\nnode 0 IntALU +a\nnode 1 Store s[i]\nedge 0 1 1 0 data\n"}]}'
curl -sf -o "$work/batch-single" "$standalone/v1/schedule/batch" -d "$batch"
curl -sf -o "$work/batch-cluster" "$coord/v1/schedule/batch" -d "$batch"
cmp "$work/batch-single" "$work/batch-cluster" ||
    { echo "distributed batch differs from single-node batch" >&2; exit 1; }
curl -sf -o "$work/batch-cluster2" "$coord/v1/schedule/batch" -d "$batch"
cmp "$work/batch-cluster" "$work/batch-cluster2" ||
    { echo "distributed batch not byte-stable across repeats" >&2; exit 1; }
loops_counted=0
for _ in 1 2 3; do
    if curl -sf "$coord/metrics" | grep -q '^gpcoordd_batch_loops_total [1-9]'; then
        loops_counted=1; break
    fi
    sleep 1
done
[ "$loops_counted" = 1 ] ||
    { echo "coordinator did not count fanned-out batch loops" >&2; exit 1; }
kill -TERM "$sa_pid"
wait "$sa_pid" || { echo "standalone gpserved failed to drain" >&2; cat "$work/standalone.log" >&2; exit 1; }

echo "== distributed -short sweep job vs committed single-node golden"
job="$(curl -sf "$coord/v1/jobs" -d '{"max_loops": 2, "verify": true}')"
id="$(printf '%s' "$job" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')"
[ -n "$id" ] || { echo "no job id in: $job" >&2; exit 1; }
for i in $(seq 1 1200); do
    if curl -sf -o "$work/cluster.csv" "$coord/v1/jobs/$id/csv" &&
        head -1 "$work/cluster.csv" | grep -q '^corpus,'; then
        break
    fi
    if [ "$i" = 1200 ]; then
        echo "job $id never finished:" >&2
        curl -s "$coord/v1/jobs/$id" >&2 || true
        exit 1
    fi
    sleep 0.5
done
cmp "$work/cluster.csv" internal/bench/testdata/sweep_short_golden.csv ||
    { echo "distributed sweep differs from single-node golden" >&2; exit 1; }
echo "== CSV byte-identical to sweep_short_golden.csv"

echo "== kill -9 the coordinator mid-job, restart on the same journal"
job2="$(curl -sf "$coord/v1/jobs" -d '{"max_loops": 2, "verify": true}')"
id2="$(printf '%s' "$job2" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')"
[ -n "$id2" ] || { echo "no job id in: $job2" >&2; exit 1; }
# Let it get genuinely mid-flight: at least one cell journaled done while
# the job still runs (it may finish first on a fast machine — the restart
# must then serve it straight from the journal, which the cmp below still
# proves).
for i in $(seq 1 600); do
    status="$(curl -s "$coord/v1/jobs/$id2")"
    done_cells="$(printf '%s' "$status" | sed -n 's/.*"done": \([0-9]*\).*/\1/p')"
    [ "${done_cells:-0}" -ge 1 ] && break
    sleep 0.1
done
kill -9 "$coord_pid"
wait "$coord_pid" 2>/dev/null || true

port="${coord##*:}"
"$work/gpcoordd" -addr "127.0.0.1:$port" -heartbeat 500ms -journal "$journal" -shadow-rate 1 -load-bound 1.25 >"$work/coordd2.log" 2>&1 &
pids+=($!)
coord_pid=$!
coord2="$(wait_listen "$work/coordd2.log" gpcoordd)"
[ "$coord2" = "$coord" ] || { echo "restart landed on $coord2, want $coord" >&2; exit 1; }

curl -sf "$coord/v1/jobs" >"$work/jobs.json"
grep -q "\"id\": \"$id2\"" "$work/jobs.json" ||
    { echo "restarted coordinator lost job $id2:" >&2; cat "$work/jobs.json" >&2; exit 1; }
grep -q '"resumed": true' "$work/jobs.json" ||
    { echo "no job marked resumed after restart:" >&2; cat "$work/jobs.json" >&2; exit 1; }

# The pre-crash job survived the crash, CSV intact.
curl -sf -o "$work/job1-after.csv" "$coord/v1/jobs/$id/csv" ||
    { echo "pre-crash job $id unservable after restart" >&2; exit 1; }
cmp "$work/job1-after.csv" internal/bench/testdata/sweep_short_golden.csv ||
    { echo "pre-crash job CSV corrupted by restart" >&2; exit 1; }

# The in-flight job resumes and finishes with zero lost cells.
for i in $(seq 1 1200); do
    if curl -sf -o "$work/resumed.csv" "$coord/v1/jobs/$id2/csv" &&
        head -1 "$work/resumed.csv" | grep -q '^corpus,'; then
        break
    fi
    if [ "$i" = 1200 ]; then
        echo "resumed job $id2 never finished:" >&2
        curl -s "$coord/v1/jobs/$id2" >&2 || true
        exit 1
    fi
    sleep 0.5
done
cmp "$work/resumed.csv" internal/bench/testdata/sweep_short_golden.csv ||
    { echo "resumed sweep differs from single-node golden" >&2; exit 1; }
echo "== resumed job CSV byte-identical to sweep_short_golden.csv"

echo "== rolling upgrade: restart worker b on a bumped algorithm version"
kill -TERM "$wb_pid"
wait "$wb_pid" || { echo "worker b failed to drain for the upgrade" >&2; cat "$work/worker-b.log" >&2; exit 1; }
"$work/gpserved" -addr 127.0.0.1:0 -coordinator "$coord" -node-id smoke-b -algo-version gp/3-smoke >"$work/worker-b2.log" 2>&1 &
pids+=($!)
wb_pid=$!
for i in $(seq 1 200); do
    ready="$(curl -sf "$coord/v1/fleet/nodes" | grep -c '"state": "ready"' || true)"
    [ "$ready" = 2 ] && break
    if [ "$i" = 200 ]; then
        echo "fleet never re-readied after the upgrade:" >&2
        curl -s "$coord/v1/fleet/nodes" >&2 || true
        exit 1
    fi
    sleep 0.05
done
curl -sf "$coord/v1/fleet/nodes" | grep -q '"algo_version": "gp/3-smoke"' ||
    { echo "upgraded worker's version never reached the registry" >&2; curl -s "$coord/v1/fleet/nodes" >&2; exit 1; }

echo "== fleet cache flush converges every worker on the new epoch"
flush="$(curl -sf "$coord/v1/cache/flush" -d '{}')"
epoch="$(printf '%s' "$flush" | sed -n 's/.*"epoch": \([0-9]*\).*/\1/p' | head -1)"
[ "${epoch:-0}" -ge 1 ] || { echo "flush did not raise the epoch: $flush" >&2; exit 1; }
for i in $(seq 1 200); do
    conv="$(curl -sf "$coord/v1/fleet/nodes" | grep -c "\"epoch\": $epoch" || true)"
    [ "$conv" = 2 ] && break
    if [ "$i" = 200 ]; then
        echo "fleet never converged on epoch $epoch:" >&2
        curl -s "$coord/v1/fleet/nodes" >&2 || true
        exit 1
    fi
    sleep 0.05
done

# The flushed fleet must recompute — and land on the same bytes as before
# the upgrade, since both versions are this build. A stale pre-flush cache
# entry would surface here as an X-Cache hit or divergent bytes.
curl -sf -D "$work/h3" -o "$work/b3" "$coord/v1/schedule" -d "$req"
[ "$(tr -d '\r' <"$work/h3" | sed -n 's/^X-Cache: //p')" = miss ] ||
    { echo "post-flush request served a stale cache entry" >&2; cat "$work/h3" >&2; exit 1; }
[ "$(tr -d '\r' <"$work/h3" | sed -n 's/^X-Algo-Epoch: //p' | head -1)" = "$epoch" ] ||
    { echo "post-flush response not stamped with epoch $epoch" >&2; cat "$work/h3" >&2; exit 1; }
cmp "$work/b1" "$work/b3" || { echo "bytes changed across the rolling upgrade" >&2; exit 1; }
curl -sf -D "$work/h4" -o "$work/b4" "$coord/v1/schedule" -d "$req"
[ "$(tr -d '\r' <"$work/h4" | sed -n 's/^X-Cache: //p')" = hit ] ||
    { echo "post-flush cache never repopulated" >&2; cat "$work/h4" >&2; exit 1; }
cmp "$work/b1" "$work/b4" || { echo "repopulated cache bytes differ" >&2; exit 1; }

echo "== shadow verifier sampled replays with zero mismatches"
sleep 2 # let the async replays of the requests above land
metrics="$(curl -sf "$coord/metrics")"
sampled="$(printf '%s\n' "$metrics" | sed -n 's/^gpcoordd_shadow_sampled_total //p')"
[ "${sampled:-0}" -ge 1 ] || { echo "shadow verifier sampled nothing (rate 1)" >&2; exit 1; }
printf '%s\n' "$metrics" | grep -q '^gpcoordd_shadow_mismatch_total 0$' ||
    { echo "shadow mismatches across a same-binary upgrade:" >&2
      printf '%s\n' "$metrics" | grep '^gpcoordd_shadow' >&2; exit 1; }

echo "== fleet API: JSON healthz"
curl -sf "$coord/healthz" | grep -q '"status": "ok"' ||
    { echo "healthz is not the JSON fleet summary" >&2; curl -s "$coord/healthz" >&2; exit 1; }

echo "== observability: one X-Request-Id stitches coordinator and worker traces"
rid="smoke0000feedbeef"
obsreq='{"loop_text": "loop obskey 100\nnode 0 Load a[i]\nnode 1 FPAdd +s\nnode 2 Store s=\nedge 0 1 2 0 data\nedge 1 2 4 0 data\nedge 1 1 4 1 data\n", "clusters": 2, "regs": 32, "nbus": 1, "latbus": 1}'
curl -sf -D "$work/h5" -o /dev/null -H "X-Request-Id: $rid" "$coord/v1/schedule" -d "$obsreq"
[ "$(tr -d '\r' <"$work/h5" | sed -n 's/^X-Request-Id: //p' | head -1)" = "$rid" ] ||
    { echo "coordinator did not echo the request ID" >&2; cat "$work/h5" >&2; exit 1; }
grep -qi '^X-Phase-Timing: ' "$work/h5" ||
    { echo "response missing X-Phase-Timing" >&2; cat "$work/h5" >&2; exit 1; }
served_by="$(tr -d '\r' <"$work/h5" | sed -n 's/^X-Node: //p' | head -1)"
[ -n "$served_by" ] || { echo "no X-Node on traced response" >&2; exit 1; }

curl -sf -o "$work/ctrace.json" "$coord/v1/debug/traces/$rid" ||
    { echo "coordinator has no trace for $rid" >&2; exit 1; }
grep -q "\"id\": \"$rid\"" "$work/ctrace.json" &&
    grep -q '"op": "proxy-schedule"' "$work/ctrace.json" &&
    grep -q '"name": "place"' "$work/ctrace.json" ||
    { echo "coordinator trace malformed:" >&2; cat "$work/ctrace.json" >&2; exit 1; }

worker_ep="$(curl -sf "$coord/v1/fleet/nodes" |
    tr -d '\n' | sed -n "s/.*\"id\": \"$served_by\",[[:space:]]*\"endpoint\": \"\([^\"]*\)\".*/\1/p")"
[ -n "$worker_ep" ] || { echo "no endpoint for node $served_by" >&2; exit 1; }
curl -sf -o "$work/wtrace.json" "$worker_ep/v1/debug/traces/$rid" ||
    { echo "worker $served_by has no trace for $rid" >&2; exit 1; }
grep -q "\"id\": \"$rid\"" "$work/wtrace.json" &&
    grep -q '"op": "schedule"' "$work/wtrace.json" ||
    { echo "worker trace malformed:" >&2; cat "$work/wtrace.json" >&2; exit 1; }
echo "== trace $rid present on coordinator (proxy-schedule) and worker $served_by (schedule)"

echo "== observability: metric families complete on both /metrics pages"
curl -sf "$coord/metrics" >"$work/coord-metrics"
curl -sf "$worker_ep/metrics" >"$work/worker-metrics"
for fam in gpcoordd_request_duration_seconds_bucket gpcoordd_request_duration_seconds_sum gpcoordd_request_duration_seconds_count; do
    grep -q "^$fam" "$work/coord-metrics" ||
        { echo "coordinator /metrics missing $fam" >&2; exit 1; }
done
for fam in gpserved_request_duration_seconds_bucket gpserved_request_duration_seconds_sum gpserved_request_duration_seconds_count; do
    grep -q "^$fam" "$work/worker-metrics" ||
        { echo "worker /metrics missing $fam" >&2; exit 1; }
done
# Metric-name lint: every family must be a *_total counter, a histogram
# series, a known gauge, or carry a label block (per-node gauges). A typoed
# family name fails here the way the Go-side obs.CheckMetrics test does.
bad_names="$(grep -vE '^#|^$' "$work/coord-metrics" "$work/worker-metrics" | sed 's/^[^:]*://' |
    awk '{print $1}' | grep -v '{' |
    grep -vE '_(total|bucket|sum|count)$' |
    grep -vE '^(gpcoordd_jobs_running|gpcoordd_fleet_epoch|gpcoordd_recovery_(nodes_adopted|jobs_resumed|cells_restored)|gpcoordd_nodes|gpcoordd_latency_p(50|99)_seconds|gpserved_cache_entries|gpserved_algo_epoch|gpserved_queue_depth|gpserved_inflight|gpserved_latency_p(50|99)_seconds)$' || true)"
[ -z "$bad_names" ] || { echo "unrecognized metric families:" >&2; printf '%s\n' "$bad_names" >&2; exit 1; }

echo "== hot-key phase: single-key burst against 3 workers spills without shedding"
"$work/gpserved" -addr 127.0.0.1:0 -coordinator "$coord" -node-id smoke-c >"$work/worker-c.log" 2>&1 &
pids+=($!)
wc_pid=$!
for i in $(seq 1 200); do
    ready="$(curl -sf "$coord/v1/fleet/nodes" | grep -c '"state": "ready"' || true)"
    [ "$ready" = 3 ] && break
    if [ "$i" = 200 ]; then
        echo "third worker never became ready:" >&2
        curl -s "$coord/v1/fleet/nodes" >&2 || true
        exit 1
    fi
    sleep 0.05
done

# A fresh (uncached) key, hit by 40 concurrent clients: the HRW owner blows
# past the 1.25×mean in-flight bound and the key must fan down the ranking.
hotreq='{"loop_text": "loop hotkey 100\nnode 0 Load a[i]\nnode 1 Load b[i]\nnode 2 FPMul *c\nnode 3 FPMul *d\nnode 4 FPAdd +s\nnode 5 FPAdd +t\nnode 6 Store s=\nnode 7 Store t=\nedge 0 2 2 0 data\nedge 1 3 2 0 data\nedge 2 4 4 0 data\nedge 3 5 4 0 data\nedge 4 6 4 0 data\nedge 5 7 4 0 data\nedge 4 4 4 1 data\nedge 5 5 4 1 data\n", "clusters": 4, "regs": 64, "nbus": 2, "latbus": 1}'
spills_before="$(curl -sf "$coord/metrics" | sed -n 's/^gpcoordd_spills_total //p')"
: >"$work/hot-codes"
curl_pids=()
for i in $(seq 1 40); do
    curl -s -o "$work/hot-$i" -w '%{http_code}\n' "$coord/v1/schedule" -d "$hotreq" >>"$work/hot-codes" &
    curl_pids+=($!)
done
wait "${curl_pids[@]}"
bad="$(grep -cv '^200$' "$work/hot-codes" || true)"
[ "$bad" = 0 ] || { echo "$bad/40 hot-key requests shed or failed:" >&2; sort "$work/hot-codes" | uniq -c >&2; exit 1; }
for i in $(seq 2 40); do
    cmp -s "$work/hot-1" "$work/hot-$i" ||
        { echo "hot-key response $i differs from response 1" >&2; exit 1; }
done
spills_after="$(curl -sf "$coord/metrics" | sed -n 's/^gpcoordd_spills_total //p')"
[ "${spills_after:-0}" -gt "${spills_before:-0}" ] ||
    { echo "bounded-load never spilled (spills $spills_before -> $spills_after)" >&2
      curl -s "$coord/metrics" | grep '^gpcoordd_node_inflight' >&2 || true; exit 1; }
echo "== hot key spilled $((spills_after - spills_before)) time(s), 0 shed, 40/40 byte-identical"

echo "== graceful drain"
kill -TERM "$wa_pid" "$wb_pid" "$wc_pid"
wait "$wa_pid" || { echo "worker a exited non-zero" >&2; cat "$work/worker-a.log" >&2; exit 1; }
wait "$wb_pid" || { echo "worker b exited non-zero" >&2; cat "$work/worker-b.log" >&2; exit 1; }
wait "$wc_pid" || { echo "worker c exited non-zero" >&2; cat "$work/worker-c.log" >&2; exit 1; }
kill -TERM "$coord_pid"
wait "$coord_pid" || { echo "coordinator exited non-zero" >&2; cat "$work/coordd2.log" >&2; exit 1; }
pids=()

echo "== cluster smoke OK"
