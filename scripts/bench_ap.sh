#!/usr/bin/env bash
# Runs the AP-relevant cargo benches and assembles BENCH_ap.json so the
# perf trajectory is comparable across PRs.
#
# Usage: scripts/bench_ap.sh [--quick] [output.json]
#
#   --quick   CI smoke mode: tiny measurement budget, backend_compare
#             only. The replay perf gate still applies (see below).
#
# Perf gate: backend/fastword-replayed/2048 must be no slower than the
# recorded backend/fastword-reused/2048 baseline in the committed
# BENCH_ap.json (tolerance SOFTMAP_REPLAY_TOL, default 1.5 to absorb
# cross-host variance; the same-run comparison is printed alongside).
# Set SOFTMAP_REPLAY_TOL=0 to disable the gate.
#
# Shard gate (host-invariant): the sharded long-sequence series
# (backend/fastword-sharded/{4096,8192} = seq 8192/16384 on 2048-row
# tiles) must exist and scale ~linearly — the 16384/8192 same-run time
# ratio must stay within [1.2, 4.5]; the ratio cancels host speed.
#
# Optimizer gate (host-invariant): the `cycles/...` records the bench
# appends are simulated cycle counts from the compiled plans (static ==
# simulated is test-enforced), so they do not depend on host speed.
# cycles/fastword-optimized/2048 must be <= 0.85x cycles/fastword/2048
# — the pass pipeline's >= 15% cut at the default deployment tile.
# Residency gate (host-invariant): the resident sharded regime must
# keep at most 0.90x the re-staged simulated cycles at seq 16384 —
# cycles/fastword-sharded-resident/8192 <= 0.90x
# cycles/fastword-sharded-optimized/8192. Like the optimizer gate these
# are static == simulated cycle counts, so host speed never enters.
# Autotune gate (host-invariant): the mapping autotuner's winner must
# keep cycles/fastword-autotuned/<rows> <= cycles/fastword-default/<rows>
# at every emitted length (64 - 32768 tokens) — the tuner's "never
# statically worse than the paper default" contract, on static ==
# simulated cycle counts.
#
# Blocking gate (wall-clock, same-run ratio): the region-blocked
# strip-mined executor must actually be faster than the op-by-op
# engine where it is designed to win — the large-tile point. Both
# series replay the IDENTICAL fused plan in the same process, so the
# ratio cancels host speed: backend/fastword-blocked/2048 must be
# <= 0.85x backend/fastword-optimized/2048. Unlike the cycle gates
# this is a wall-clock ratio (blocking is a host-only optimization —
# simulated cycles are contractually identical on both paths, so a
# cycle gate would be vacuously 1.0x).
#
# Serving gate (host-invariant): the multi-tenant serving layer's
# load-gen bench (serving_load) emits device-model records — simulated
# cycles and admission counters, independent of host speed. The
# continuous-batching schedule must beat the sequential one-request-
# at-a-time device baseline by >= 1.3x
# (serving/device_speedup_x1000 >= 1300), keep the tile grid >= 40%
# occupied (serving/occupancy_x1000 >= 400), and actually batch
# (serving/waves_formed >= 1, serving/coalesced >= 1). Wall-clock
# serving records (throughput_rps, p50/p99, and the idle series'
# idle_p50/p90_us_<len>) are recorded but not gated.
#
# All gates run in --quick too, and every gate runs and prints its
# verdict even after an earlier one failed; the script then exits 1
# once, naming the failed gates. Set SOFTMAP_SHARD_GATE=0 /
# SOFTMAP_OPT_GATE=0 / SOFTMAP_RESIDENT_GATE=0 / SOFTMAP_AUTOTUNE_GATE=0
# / SOFTMAP_SERVE_GATE=0 / SOFTMAP_BLOCK_GATE=0 to disable individually.
#
# Measurement methodology: the vendored harness sizes each series by a
# wall-clock budget scaled by `sample_size(n)` (n% of
# CRITERION_MEASURE_MS). The pooled plan-cache series backing
# plan_replay_gain_* / plan_compile_us_* are consumed as RATIOS of each
# other, so backend_compare runs them at a 4x budget (sample_size 40) —
# a single scheduler preemption inside one short window previously
# skewed the recorded plan_replay_gain_rows1024 to 0.53 (replay cannot
# be ~2x slower than direct issue of the same schedule).
#
# Environment:
#   CRITERION_MEASURE_MS  per-benchmark wall-clock budget (default 500)
#   SOFTMAP_REPLAY_TOL    replay-vs-baseline gate tolerance (default 1.5)
#   SOFTMAP_SHARD_GATE    set 0 to disable the shard scaling gate
#   SOFTMAP_OPT_GATE      set 0 to disable the optimizer cycle gate
#   SOFTMAP_RESIDENT_GATE set 0 to disable the residency cycle gate
#   SOFTMAP_AUTOTUNE_GATE set 0 to disable the autotune cycle gate
#   SOFTMAP_SERVE_GATE    set 0 to disable the serving gate
#   SOFTMAP_BLOCK_GATE    set 0 to disable the blocked-executor gate
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
out=""
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        -*)
            echo "unknown flag: $arg (usage: $0 [--quick] [output.json])" >&2
            exit 2
            ;;
        *) out="$arg" ;;
    esac
done
if [ -z "$out" ]; then
    # Quick mode must not clobber the committed full perf record.
    if [ "$quick" = 1 ]; then out="BENCH_ap.quick.json"; else out="BENCH_ap.json"; fi
fi

lines="$(mktemp)"
trap 'rm -f "$lines"' EXIT

export CRITERION_JSON="$lines"

if [ "$quick" = 1 ]; then
    export CRITERION_MEASURE_MS="${CRITERION_MEASURE_MS:-50}"
    export CRITERION_WARMUP_MS="${CRITERION_WARMUP_MS:-10}"
    cargo bench -p softmap-bench --bench backend_compare --bench serving_load
else
    export CRITERION_MEASURE_MS="${CRITERION_MEASURE_MS:-500}"
    # backend_compare runs first: its blocked-vs-op-by-op gate compares a
    # cache-resident (clock-sensitive) series against a DRAM-bound one,
    # so minutes of prior bench load would skew the ratio via frequency
    # sag before the comparison even starts.
    cargo bench -p softmap-bench \
        --bench backend_compare \
        --bench ap_softmax_dataflow \
        --bench table2_ap_primitives \
        --bench scalar_softmax \
        --bench serving_load
fi

python3 - "$lines" "$out" "$quick" <<'PY'
import json, os, platform, subprocess, sys

lines_path, out_path, quick = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
results = [json.loads(l) for l in open(lines_path) if l.strip()]

# Read the committed baseline BEFORE any overwrite of BENCH_ap.json.
baseline = {}
if os.path.exists("BENCH_ap.json"):
    try:
        baseline = json.load(open("BENCH_ap.json")).get("results_ns_per_iter", {})
    except (json.JSONDecodeError, OSError):
        baseline = {}

by_name = {r["bench"]: r["ns_per_iter"] for r in results}
speedups = {}
plan = {}
opt = {}
for key, label in [("512", "rows256"), ("1024", "rows512"),
                   ("2048", "rows1024"), ("4096", "rows2048")]:
    # backend_compare labels benchmarks by row count (= len / 2).
    rows = str(int(key) // 2)
    micro = by_name.get(f"backend/microcode/{rows}")
    fast = by_name.get(f"backend/fastword/{rows}")
    reused = by_name.get(f"backend/fastword-reused/{rows}")
    replayed = by_name.get(f"backend/fastword-replayed/{rows}")
    optimized = by_name.get(f"backend/fastword-optimized/{rows}")
    compile_ = by_name.get(f"backend/fastword-compile/{rows}")
    cyc_unopt = by_name.get(f"cycles/fastword/{rows}")
    cyc_opt = by_name.get(f"cycles/fastword-optimized/{rows}")
    if micro and fast:
        speedups[f"fastword_speedup_{label}"] = round(micro / fast, 2)
    if micro and reused:
        speedups[f"fastword_reused_speedup_{label}"] = round(micro / reused, 2)
    if fast and reused:
        speedups[f"tile_reuse_gain_{label}"] = round(fast / reused, 2)
    if reused and replayed:
        speedups[f"plan_replay_gain_{label}"] = round(reused / replayed, 2)
    if compile_ and replayed:
        # Compile amortization: what one compile (trace + costing
        # replay) costs beyond a replay of the cached plan, in
        # microseconds.
        plan[f"plan_compile_us_{label}"] = round(max(compile_ - replayed, 0.0) / 1e3, 1)
    if cyc_unopt and cyc_opt:
        # Simulated-cycle ratio: unoptimized replay / fused schedule at
        # the same shape. Host-invariant (static == simulated).
        opt[f"opt_gain_{label}"] = round(cyc_unopt / cyc_opt, 3)
        opt[f"opt_cycles_{label}"] = int(cyc_opt)
        opt[f"unopt_cycles_{label}"] = int(cyc_unopt)
    if replayed and optimized:
        # Wall-clock companion to the cycle ratio (host-dependent).
        opt[f"opt_replay_gain_{label}"] = round(replayed / optimized, 2)
if "plan_compile_us_rows1024" in plan:
    plan["plan_compile_us"] = plan["plan_compile_us_rows1024"]
for seq in ("8192", "16384"):
    cyc_u = by_name.get(f"cycles/fastword-sharded/{int(seq) // 2}")
    cyc_o = by_name.get(f"cycles/fastword-sharded-optimized/{int(seq) // 2}")
    if cyc_u and cyc_o:
        opt[f"opt_gain_shard_seq{seq}"] = round(cyc_u / cyc_o, 3)

# Sharded long-sequence series (seq = 2 x rows label; 2048-row tiles).
shard = {}
shard8k = by_name.get("backend/fastword-sharded/4096")
shard16k = by_name.get("backend/fastword-sharded/8192")
if shard8k:
    shard["shard_seq8192_ns"] = round(shard8k, 1)
if shard16k:
    shard["shard_seq16384_ns"] = round(shard16k, 1)
if shard8k and shard16k:
    shard["shard_scale_16384_over_8192"] = round(shard16k / shard8k, 2)
whole4k = by_name.get("backend/fastword-replayed/2048")
if whole4k and shard8k:
    # Host time per score crossing the single-tile boundary (the
    # sharded path re-stages operands between phases, so > 1x).
    shard["shard_overhead_vs_whole_per_score"] = round(
        (shard8k / 8192.0) / (whole4k / 4096.0), 2)

# Resident sharded regime: shards keep their tiles across phases, so
# phase-boundary Load/Read staging is elided. Cycle fields are
# host-invariant (static == simulated); wall-clock fields are not.
resident = {}
for seq in ("8192", "16384"):
    rows = str(int(seq) // 2)
    wall = by_name.get(f"backend/fastword-sharded-resident/{rows}")
    cyc_r = by_name.get(f"cycles/fastword-sharded-resident/{rows}")
    cyc_o = by_name.get(f"cycles/fastword-sharded-optimized/{rows}")
    if wall:
        resident[f"resident_seq{seq}_ns"] = round(wall, 1)
    if cyc_r:
        resident[f"resident_cycles_seq{seq}"] = int(cyc_r)
    if cyc_r and cyc_o:
        resident[f"resident_over_restaged_seq{seq}"] = round(cyc_r / cyc_o, 3)

# Region-blocked strip-mined executor: wall-clock replay of the SAME
# fused plan through the blocked engine vs the op-by-op engine (both
# measured this run, same process — the ratio cancels host speed).
# There is no cycle companion: blocking is a host-only optimization
# and charges contractually identical CycleStats.
blocking = {}
for rows in ("256", "512", "1024", "2048"):
    blk = by_name.get(f"backend/fastword-blocked/{rows}")
    opbyop = by_name.get(f"backend/fastword-optimized/{rows}")
    if blk:
        blocking[f"blocked_rows{rows}_ns"] = round(blk, 1)
    if blk and opbyop:
        blocking[f"blocked_over_opbyop_rows{rows}"] = round(blk / opbyop, 3)
for seq in ("8192", "16384"):
    rows = str(int(seq) // 2)
    blk = by_name.get(f"backend/fastword-sharded-blocked/{rows}")
    opbyop = by_name.get(f"backend/fastword-sharded-resident/{rows}")
    if blk:
        blocking[f"blocked_shard_seq{seq}_ns"] = round(blk, 1)
    if blk and opbyop:
        blocking[f"blocked_over_opbyop_shard_seq{seq}"] = round(blk / opbyop, 3)

# Multi-tenant serving layer: wall-clock throughput/latency (host-
# dependent, informational; the idle_* fields are lone long requests on
# an idle 2-worker server) plus the device-model schedule quality the
# serving gate runs on (host-invariant: simulated cycles and admission
# counters from the load-gen bench).
serving = {}
for key, label in [("serving/requests", "requests"),
                   ("serving/throughput_rps", "throughput_rps"),
                   ("serving/p50_us", "p50_us"),
                   ("serving/p99_us", "p99_us"),
                   ("serving/wall_speedup_x1000", "wall_speedup_x1000"),
                   ("serving/device_speedup_x1000", "device_speedup_x1000"),
                   ("serving/occupancy_x1000", "occupancy_x1000"),
                   ("serving/waves_formed", "waves_formed"),
                   ("serving/coalesced", "coalesced"),
                   ("serving/idle_p50_us_8192", "idle_p50_us_8192"),
                   ("serving/idle_p90_us_8192", "idle_p90_us_8192"),
                   ("serving/idle_p50_us_16384", "idle_p50_us_16384"),
                   ("serving/idle_p90_us_16384", "idle_p90_us_16384")]:
    v = by_name.get(key)
    if v is not None:
        serving[label] = int(v)
if "device_speedup_x1000" in serving:
    serving["device_speedup"] = round(serving["device_speedup_x1000"] / 1000.0, 2)
if "occupancy_x1000" in serving:
    serving["occupancy"] = round(serving["occupancy_x1000"] / 1000.0, 3)

# Mapping autotuner: tuned-winner vs paper-default simulated cycles at
# every emitted length. Host-invariant (static == simulated).
autotune = {}
for rows, ns in sorted(by_name.items()):
    if not rows.startswith("cycles/fastword-autotuned/"):
        continue
    label = rows.rsplit("/", 1)[1]
    default_ns = by_name.get(f"cycles/fastword-default/{label}")
    seq = int(label) * 2
    autotune[f"autotune_cycles_seq{seq}"] = int(ns)
    if default_ns:
        autotune[f"autotune_default_cycles_seq{seq}"] = int(default_ns)
        autotune[f"autotune_over_default_seq{seq}"] = round(ns / default_ns, 3)

doc = {
    "schema": "softmap-bench-ap-v1",
    "quick": quick,
    "rustc": subprocess.run(["rustc", "--version"], capture_output=True,
                            text=True).stdout.strip(),
    "host": platform.platform(),
    "results_ns_per_iter": {r["bench"]: r["ns_per_iter"] for r in results},
    "backend_speedups": speedups,
    "plan_cache": plan,
    "sharding": shard,
    "residency": resident,
    "blocking": blocking,
    "optimizer": opt,
    "autotune": autotune,
    "serving": serving,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(results)} benchmarks)")

# Every gate runs and prints its verdict; a failing gate is recorded
# here, and the script exits 1 once, after the last gate.
failures = []

# ---- replay perf gate ----------------------------------------------------
tol = float(os.environ.get("SOFTMAP_REPLAY_TOL", "1.5"))
def replay_gate():
    replayed = by_name.get("backend/fastword-replayed/2048")
    reused_now = by_name.get("backend/fastword-reused/2048")
    reused_rec = baseline.get("backend/fastword-reused/2048") or reused_now
    if not (replayed and reused_now and reused_rec):
        # A gate that cannot find its series must fail, not skip.
        print("REPLAY GATE FAILED: missing benchmark series "
              f"(fastword-replayed/2048 = {replayed}, "
              f"same-run fastword-reused/2048 = {reused_now}, "
              f"recorded baseline = {reused_rec}). "
              "Did a series get renamed without updating the gate?",
              file=sys.stderr)
        failures.append("replay")
        return
    # Host-invariant threshold: the same-run reused measurement is the
    # primary reference (a slower CI runner slows both series alike);
    # the recorded baseline still gates same-host regressions.
    limit = max(reused_now, reused_rec) * tol
    print(f"replay gate: fastword-replayed/2048 = {replayed:.0f} ns vs "
          f"recorded fastword-reused/2048 baseline = {reused_rec:.0f} ns, "
          f"same-run reused = {reused_now:.0f} ns (limit {limit:.0f} ns, tol {tol}x)")
    if replayed > limit:
        print("REPLAY GATE FAILED: cached-plan replay "
              f"({replayed:.0f} ns) exceeds {tol}x the slower of the "
              f"same-run reused measurement ({reused_now:.0f} ns) and the "
              f"recorded fastword-reused baseline ({reused_rec:.0f} ns). "
              "Compile-once/replay-many must not lose to per-vector issue.",
              file=sys.stderr)
        failures.append("replay")
        return
    print("replay gate: OK")

if tol > 0:
    replay_gate()

# ---- shard scaling gate ----------------------------------------------------
# Host-invariant by construction: both series come from the same run on
# the same machine, so their RATIO cancels host speed. Doubling the
# token count (8192 -> 16384 scores, 2 -> 4 shards on 2048-row tiles)
# must roughly double the simulation time; a super-linear blow-up means
# the sharded path lost its zero-allocation / plan-replay properties.
def shard_gate():
    if not (shard8k and shard16k):
        print("SHARD GATE FAILED: missing benchmark series "
              f"(fastword-sharded/4096 = {shard8k}, "
              f"fastword-sharded/8192 = {shard16k}). "
              "Did a series get renamed without updating the gate?",
              file=sys.stderr)
        failures.append("shard")
        return
    ratio = shard16k / shard8k
    lo, hi = 1.2, 4.5
    print(f"shard gate: sharded 16384 / sharded 8192 = {ratio:.2f}x "
          f"(allowed {lo}-{hi}x; 8192 = {shard8k:.0f} ns, 16384 = {shard16k:.0f} ns)")
    if not (lo <= ratio <= hi):
        print("SHARD GATE FAILED: doubling the sharded sequence scaled "
              f"{ratio:.2f}x (allowed {lo}-{hi}x). Sub-linear means a "
              "series is mislabeled; super-linear means the sharded path "
              "regressed (per-vector allocation or recompilation).",
              file=sys.stderr)
        failures.append("shard")
        return
    print("shard gate: OK")

if os.environ.get("SOFTMAP_SHARD_GATE", "1") != "0":
    shard_gate()

# ---- optimizer cycle gate --------------------------------------------------
# Host-invariant by construction: both numbers are simulated cycle
# counts from the compiled plans' static costs (static == simulated is
# enforced by crates/eval/tests/static_cost.rs), so host speed never
# enters. The pass pipeline must cut the default deployment tile
# (2048 rows) by at least 15%.
def opt_gate():
    cyc_unopt = by_name.get("cycles/fastword/2048")
    cyc_opt = by_name.get("cycles/fastword-optimized/2048")
    if not (cyc_unopt and cyc_opt):
        print("OPT GATE FAILED: missing simulated-cycle records "
              f"(cycles/fastword/2048 = {cyc_unopt}, "
              f"cycles/fastword-optimized/2048 = {cyc_opt}). "
              "Did backend_compare stop emitting cycle lines?",
              file=sys.stderr)
        failures.append("opt")
        return
    ratio = cyc_opt / cyc_unopt
    print(f"opt gate: fused {cyc_opt:.0f} vs unoptimized {cyc_unopt:.0f} "
          f"simulated cycles @2048 rows = {ratio:.3f}x (limit 0.85x)")
    if ratio > 0.85:
        print("OPT GATE FAILED: the fused schedule keeps "
              f"{ratio:.3f}x of the unoptimized simulated cycles at the "
              "default deployment tile (allowed <= 0.85x). A pass "
              "stopped firing or the fused ops lost their cost model "
              "discount.", file=sys.stderr)
        failures.append("opt")
        return
    print("opt gate: OK")

if os.environ.get("SOFTMAP_OPT_GATE", "1") != "0":
    opt_gate()

# ---- residency cycle gate --------------------------------------------------
# Host-invariant by construction: both numbers are simulated cycle
# counts from the compiled sharded plans' static costs (static ==
# simulated is enforced by crates/eval/tests/static_cost.rs). Keeping
# shards resident across phases must cut the re-staged seq-16384
# schedule by at least 10%.
def resident_gate():
    cyc_res = by_name.get("cycles/fastword-sharded-resident/8192")
    cyc_restaged = by_name.get("cycles/fastword-sharded-optimized/8192")
    if not (cyc_res and cyc_restaged):
        print("RESIDENT GATE FAILED: missing simulated-cycle records "
              f"(cycles/fastword-sharded-resident/8192 = {cyc_res}, "
              f"cycles/fastword-sharded-optimized/8192 = {cyc_restaged}). "
              "Did backend_compare stop emitting the resident series?",
              file=sys.stderr)
        failures.append("resident")
        return
    ratio = cyc_res / cyc_restaged
    print(f"resident gate: resident {cyc_res:.0f} vs re-staged "
          f"{cyc_restaged:.0f} simulated cycles @seq 16384 = {ratio:.3f}x "
          "(limit 0.90x)")
    if ratio > 0.90:
        print("RESIDENT GATE FAILED: the resident sharded schedule keeps "
              f"{ratio:.3f}x of the re-staged simulated cycles at seq "
              f"16384 (resident = {cyc_res:.0f} cyc, re-staged = "
              f"{cyc_restaged:.0f} cyc; allowed <= 0.90x). Residency "
              "stopped eliding phase-boundary staging or the lockstep "
              "replay lost its zero-charge accounting.", file=sys.stderr)
        failures.append("resident")
        return
    print("resident gate: OK")

if os.environ.get("SOFTMAP_RESIDENT_GATE", "1") != "0":
    resident_gate()

# ---- blocked-executor gate -------------------------------------------------
# Wall-clock, but a SAME-RUN ratio of two series replaying the
# identical fused plan in the same process, so host speed cancels.
# There is no cycle-count companion gate: blocking is a host-only
# optimization whose CycleStats are contractually identical to the
# op-by-op engine's (differential-proptest-enforced), so a simulated-
# cycle gate would be vacuously 1.0x. The blocked executor must win
# where it is designed to win — the large-tile (2048-row) point.
def block_gate():
    blk = by_name.get("backend/fastword-blocked/2048")
    opbyop = by_name.get("backend/fastword-optimized/2048")
    if not (blk and opbyop):
        print("BLOCK GATE FAILED: missing benchmark series "
              f"(fastword-blocked/2048 = {blk}, "
              f"fastword-optimized/2048 = {opbyop}). "
              "Did backend_compare stop emitting the blocked series?",
              file=sys.stderr)
        failures.append("block")
        return
    ratio = blk / opbyop
    print(f"block gate: blocked {blk:.0f} ns vs op-by-op {opbyop:.0f} ns "
          f"@2048 rows = {ratio:.3f}x (limit 0.85x)")
    if ratio > 0.85:
        print("BLOCK GATE FAILED: the region-blocked executor replays "
              f"the fused 2048-row plan in {blk:.0f} ns vs the op-by-op "
              f"engine's {opbyop:.0f} ns ({ratio:.3f}x; required <= "
              "0.85x). Strip-mining stopped beating the per-op "
              "gather/scatter pattern — a region stopped admitting, a "
              "strip kernel lost vectorization, or the strip sizing "
              "regressed.", file=sys.stderr)
        failures.append("block")
        return
    print("block gate: OK")

if os.environ.get("SOFTMAP_BLOCK_GATE", "1") != "0":
    block_gate()

# ---- autotune cycle gate ---------------------------------------------------
# Host-invariant by construction: both numbers are simulated cycle
# counts from compiled plans' static costs (static == simulated is
# enforced by crates/eval/tests/static_cost.rs and the autotuner's own
# tests). The tuned winner must never be statically worse than the
# paper-default mapping, at any emitted length.
def autotune_gate():
    tuned_series = {k: v for k, v in by_name.items()
                    if k.startswith("cycles/fastword-autotuned/")}
    if not tuned_series:
        print("AUTOTUNE GATE FAILED: no cycles/fastword-autotuned/* "
              "records found. Did backend_compare stop emitting the "
              "autotuned series?", file=sys.stderr)
        failures.append("autotune")
        return
    failed = False
    for name, tuned_cyc in sorted(tuned_series.items(),
                                  key=lambda kv: int(kv[0].rsplit("/", 1)[1])):
        label = name.rsplit("/", 1)[1]
        default_cyc = by_name.get(f"cycles/fastword-default/{label}")
        if not default_cyc:
            print(f"AUTOTUNE GATE FAILED: cycles/fastword-default/{label} "
                  f"is missing for {name}.", file=sys.stderr)
            failures.append("autotune")
            return
        seq = int(label) * 2
        print(f"autotune gate: seq {seq}: tuned {tuned_cyc:.0f} vs "
              f"default {default_cyc:.0f} simulated cycles "
              f"({tuned_cyc / default_cyc:.3f}x)")
        if tuned_cyc > default_cyc:
            print(f"AUTOTUNE GATE FAILED: at seq {seq} the tuned winner "
                  f"({tuned_cyc:.0f} cyc) exceeds the paper-default "
                  f"mapping ({default_cyc:.0f} cyc). The autotuner must "
                  "never install a statically worse plan — the default "
                  "candidate is always scored and wins ties.",
                  file=sys.stderr)
            failed = True
    if failed:
        failures.append("autotune")
        return
    print("autotune gate: OK")

if os.environ.get("SOFTMAP_AUTOTUNE_GATE", "1") != "0":
    autotune_gate()

# ---- serving gate ----------------------------------------------------------
# Host-invariant by construction: every gated quantity is a device-model
# number — simulated cycles (request latencies, TileClocks makespan) and
# admission counters — so host speed and core count never enter. The
# continuous-batching scheduler must beat the sequential one-request-
# at-a-time device baseline by >= 1.3x, keep the grid >= 40% occupied,
# and demonstrably batch (at least one wave, at least one coalesced
# request). Wall-clock serving numbers are recorded, never gated.
def serving_gate():
    speedup = by_name.get("serving/device_speedup_x1000")
    occupancy = by_name.get("serving/occupancy_x1000")
    waves = by_name.get("serving/waves_formed")
    coalesced = by_name.get("serving/coalesced")
    if speedup is None or occupancy is None or waves is None or coalesced is None:
        print("SERVING GATE FAILED: missing serving records "
              f"(device_speedup_x1000 = {speedup}, "
              f"occupancy_x1000 = {occupancy}, waves_formed = {waves}, "
              f"coalesced = {coalesced}). "
              "Did serving_load stop emitting, or stop being run?",
              file=sys.stderr)
        failures.append("serving")
        return
    print(f"serving gate: device speedup {speedup / 1000:.2f}x "
          f"(limit >= 1.30x), occupancy {occupancy / 1000:.3f} "
          f"(limit >= 0.400), {waves:.0f} waves, "
          f"{coalesced:.0f} coalesced requests")
    if speedup < 1300:
        print("SERVING GATE FAILED: the continuous-batching schedule's "
              f"device speedup is {speedup / 1000:.2f}x over the "
              "sequential baseline (required >= 1.30x). The admission "
              "scheduler stopped packing concurrent requests onto the "
              "grid.", file=sys.stderr)
        failures.append("serving")
        return
    if occupancy < 400:
        print("SERVING GATE FAILED: tile occupancy is "
              f"{occupancy / 1000:.3f} (required >= 0.400). The wave "
              "packer is leaving most of the grid idle.", file=sys.stderr)
        failures.append("serving")
        return
    if waves < 1 or coalesced < 1:
        print("SERVING GATE FAILED: the scheduler formed "
              f"{waves:.0f} waves with {coalesced:.0f} coalesced "
              "requests — continuous batching never coalesced anything.",
              file=sys.stderr)
        failures.append("serving")
        return
    print("serving gate: OK")

if os.environ.get("SOFTMAP_SERVE_GATE", "1") != "0":
    serving_gate()

if failures:
    print(f"{len(failures)} gate(s) failed: {', '.join(failures)}", file=sys.stderr)
    sys.exit(1)
PY
