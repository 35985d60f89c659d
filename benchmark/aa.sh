#!/usr/bin/env bash
# A/A check: the same build, run 2 × N times, sets A and B alternating,
# must agree with itself within the bounds BENCHMARK.json fixes.
#
#   benchmark/aa.sh [N]      N runs per set and workload, at least 5 (default 5)
#
# Run i of either set uses seed i, so the two sets see the same inputs.
# One traced run per set (seed 1) checks the counts that must repeat
# exactly. Appends one entry to benchmark/AA.json (medians, quartiles,
# spread = (q3 - q1) / median and relative difference per workload and
# metric); exits 1 if any end-to-end metric's medians differ by more than
# its bound, a set's spread (q3 - q1 over the median) exceeds it, or an
# exact count moved. Takes about 25 minutes at N = 5. Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."

N=${1:-5}
if ! [ "$N" -ge 5 ] 2>/dev/null; then
    echo "usage: benchmark/aa.sh [N], N at least 5" >&2
    exit 2
fi
WORKLOADS="read_large read_cached mixed_tiered durable_ingest"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/li-benchmark"

runs=benchmark/aa-runs
rm -rf "$runs"
mkdir -p "$runs"
for i in $(seq 1 "$N"); do
    for set in A B; do
        for w in $WORKLOADS; do
            echo "set $set, run $i of $N: $w" >&2
            "$bin" --workload "$w" --seed "$i" --trace 0 | tail -n 1 > "$runs/$set.$w.$i.json"
        done
    done
done
for set in A B; do
    for w in $WORKLOADS; do
        echo "set $set, traced: $w" >&2
        "$bin" --workload "$w" --seed 1 --trace 1 | tail -n 1 > "$runs/$set.$w.traced.json"
    done
done

python3 - "$runs" "$N" $WORKLOADS <<'EOF'
import json, statistics, subprocess, sys, time

runs, n, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
# One thread, so inputs and maintenance are the same on every run of a
# seed, and these repeat exactly.
SIZES = ["index_bytes_per_key", "disk_write_amp", "store.compactions", "store.splits"]
EXACT = {
    "read_large": SIZES,
    "read_cached": SIZES,
    "mixed_tiered": SIZES,
    "durable_ingest": SIZES + ["wal.syncs", "wal.bytes_per_put"],
}

def load(set_, workload, run):
    result = json.load(open(f"{runs}/{set_}.{workload}.{run}.json"))
    assert result["correct"] and result["failed"] == 0, (set_, workload, run, result["failed"])
    return {name: m["value"] for name, m in result["metrics"].items()}

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}

failures = []
wide = []
report = {}
for w in workloads:
    sets = {s: [load(s, w, i) for i in range(1, n + 1)] for s in "AB"}
    traced = {s: load(s, w, "traced") for s in "AB"}
    report[w] = {"end_to_end": {}, "exact": {}}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = (summary([run[name] for run in sets[s]]) for s in "AB")
        diff = abs(a["median"] - b["median"]) / a["median"]
        report[w]["end_to_end"][name] = {"A": a, "B": b, "relative_difference": diff, "bound": bound}
        if diff > bound:
            failures.append(f"{w}/{name}: medians differ by {diff:.1%}, bound {bound:.0%}")
        for s, got in (("A", a), ("B", b)):
            # Set-up's spread is reported; only its medians are gated.
            if got["spread"] > bound and name != "setup_s":
                wide.append(f"{w}/{name}: set {s} spreads {got['spread']:.1%}, bound {bound:.0%}")
    for name in EXACT[w]:
        if name in traced["A"]:
            pairs = [(traced["A"][name], traced["B"][name])]
        else:
            pairs = [(x[name], y[name]) for x, y in zip(sets["A"], sets["B"])]
        same = all(x == y for x, y in pairs)
        report[w]["exact"][name] = {"repeats_exactly": same, "A": pairs[0][0], "B": pairs[0][1]}
        if not same:
            failures.append(f"{w}/{name}: not the same in both sets: {pairs}")

def line(*command):
    try:
        return subprocess.run(command, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"

entry = {
    "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "git": line("git", "rev-parse", "HEAD"),
    "rustc": line("rustc", "--version"),
    "cores": int(line("nproc")),
    "runs_per_set": n,
    "passed": not failures and not wide,
    "failures": failures,
    "spreads_over_bound": wide,
    "workloads": report,
}
try:
    history = json.load(open("benchmark/AA.json"))
except FileNotFoundError:
    history = {"invocations": []}
history["invocations"].append(entry)
json.dump(history, open("benchmark/AA.json", "w"), indent=1)
print("\n".join(wide + failures) if wide or failures else "no spread over its bound")
failed = bool(wide or failures)
print("A/A failed" if failed else f"A/A passed: {len(workloads)} workloads, {n} runs per set")
sys.exit(1 if failed else 0)
EOF
