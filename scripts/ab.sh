#!/usr/bin/env bash
# A/B of the end-to-end benchmark: the working tree against a revision.
#
# Usage: scripts/ab.sh <rev> [pairs]
#
# Exports <rev>'s tree (`git archive`, no git worktree registered) into
# .bench_build/<sha>/, builds its e2e_bench and the working tree's copy,
# then runs BENCHMARK.json's command with
# `--workload <w> --seconds <run_seconds>` on seeds 1 and 9001: for each
# workload and seed, `pairs` (default 10) pairs of one parent and one
# change run, alternating which side runs first. The workloads,
# run_seconds, metrics, their directions and bounds all come from
# BENCHMARK.json. Raw results go to .bench_build/ab-<sha>.jsonl.
#
# For every workload, seed and metric it prints both sides' median and
# quartiles, the change/parent ratio of the medians, the pairs the
# change won, and a verdict:
#   identical   every pair read exactly the same value
#   REGRESSION  the median is worse than the parent's by more than the
#               metric's bound
#   unresolved  the parent's quartile spread, relative to its median, is
#               wider than the metric's bound, and not every change run
#               beats every parent run: the pairs cannot tell
#   gain        won >= 9 of every 10 pairs, and the median beats the
#               parent's by more than the parent's quartile spread
#   same        anything else
# A workload whose change runs fail more operations, or report
# correct=false, is a REGRESSION too. Exits 1 on any REGRESSION or
# unresolved metric.
set -euo pipefail

rev="${1:?usage: scripts/ab.sh <rev> [pairs]}"
pairs="${2:-10}"
root="$(git rev-parse --show-toplevel)"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
parent="$root/.bench_build/$sha"
out="$root/.bench_build/ab-$sha.jsonl"

if [ ! -f "$parent/BENCHMARK.json" ]; then
    rm -rf "$parent"
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
for tree in "$parent" "$root"; do
    echo "building e2e_bench in $tree" >&2
    (cd "$tree" && cargo build --quiet --release --offline --manifest-path e2e_bench/Cargo.toml)
done

exec python3 - "$root" "$parent" "$pairs" "$out" <<'PY'
import json, os, statistics, subprocess, sys

root, parent, pairs, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
bench = json.load(open(os.path.join(root, "BENCHMARK.json")))
seconds = str(bench["run_seconds"])
seeds = ["1", "9001"]
workloads = [w["name"] for w in bench["workloads"]]


def command(seed, workload):
    cmd = list(bench["command"])
    if "--seed" in cmd:
        cmd[cmd.index("--seed") + 1] = seed
    else:
        cmd += ["--seed", seed]
    return cmd + ["--workload", workload, "--seconds", seconds]


def run(tree, seed, workload):
    done = subprocess.run(command(seed, workload), cwd=tree, capture_output=True, text=True)
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    sys.stderr.write(done.stderr)
    sys.exit(f"no result from {tree} (seed {seed}, {workload}, exit {done.returncode})")


results = {}
with open(out, "w") as log:
    for w in workloads:
        for seed in seeds:
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    pair[side] = run(parent if side == "parent" else root, seed, w)
                    log.write(json.dumps({"workload": w, "seed": seed, "pair": i, "side": side,
                                          "result": pair[side]}) + "\n")
                    log.flush()
                results.setdefault((w, seed), []).append(pair)
                print(f"{w} seed {seed}: pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


failing = False
print(f"A/B {parent} (parent) vs {root} (change): {pairs} pairs, --seconds {seconds}")
for (w, seed), runs in results.items():
    print(f"\n{w}, seed {seed}")
    print(f"  {'metric':31} {'parent q1 / median / q3':>34} {'change q1 / median / q3':>34} {'ratio':>7} {'won':>6}  verdict")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["parent"]["metrics"][name]["value"] for r in runs]
        c = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        ratio = cm / pm if pm else float("nan")
        gap = (pm - cm) if lower else (cm - pm)
        worse = (cm > pm * (1 + m["bound"])) if lower else (cm < pm * (1 - m["bound"]))
        apart = max(c) < min(p) if lower else min(c) > max(p)
        if p == c:
            verdict = "identical"
        elif worse:
            verdict, failing = "REGRESSION", True
        elif p3 - p1 > abs(pm) * m["bound"] and not apart:
            verdict, failing = "unresolved", True
        elif wins * 10 >= 9 * len(runs) and gap > p3 - p1:
            verdict = "gain"
        else:
            verdict = "same"
        fmt = lambda a, b, d: f"{a:.4g} / {b:.4g} / {d:.4g}"
        print(f"  {name:31} {fmt(p1, pm, p3):>34} {fmt(c1, cm, c3):>34} {ratio:7.4f} {wins:>3}/{len(runs):<2}  {verdict}")
    for side in ("parent", "change"):
        failed = sum(r[side]["failed"] for r in runs)
        attempted = sum(r[side]["attempted"] for r in runs)
        correct = all(r[side]["correct"] for r in runs)
        print(f"  {side}: {failed} of {attempted} operations failed, correct={correct}")
    share = lambda side: sum(r[side]["failed"] for r in runs) / max(1, sum(r[side]["attempted"] for r in runs))
    if share("change") > share("parent") or not all(r["change"]["correct"] for r in runs):
        print("  REGRESSION: the change fails more operations or is not correct")
        failing = True
sys.exit(1 if failing else 0)
PY
