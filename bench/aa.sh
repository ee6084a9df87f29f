#!/usr/bin/env bash
# bench/aa.sh is the benchmark's A/A check: it runs the current tree
# against itself and shows whether the benchmark could tell a change from
# noise.
#
#   bash bench/aa.sh [N [SEED]]         two sets of N full runs (default 5) of
#                                       every workload, all with SEED (default 1)
#   VARY=1 bash bench/aa.sh [N [SEED]]  the same, but run i of a set uses seed
#                                       SEED+i: the spread across inputs
#
# Per workload × end-to-end metric it prints both sets' medians, how much
# worse the second is than the first, the interquartile spread of each set
# as a share of its median, the metric's bound from BENCHMARK.json, and
# PASS or FAIL: the second median may not be worse than the first by more
# than the bound and, in sets of ten or more runs (setup_s apart), neither
# spread may exceed it — the benchmark driver's own acceptance test.
# (Quartiles of fewer than ten samples are nearly the range, so smaller
# sets print the spread without judging it.)  It also checks that every
# run was correct.  The wall-clock readings of the client.* tier follow
# each workload's verdicts without a bound or a verdict of their own
# ("info"): they are what a later issue compares in alternating pairs.
#
# bench/README.md says what the bounds are, why, and what a failure means.
# A failing timing metric gets a longer phase or more rounds, never a wider
# bound and never Fsync off; one that cannot hold its bound even then moves
# to the client.* tier, with the reason recorded in the README.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
n="${1:-5}"
seed="${2:-1}"
if [ "$n" -lt 5 ]; then
	echo "aa.sh: a set needs at least 5 runs" >&2
	exit 2
fi
out="$root/.bench_build/aa"
rm -rf "$out"
mkdir -p "$out"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for set in A B; do
	for i in $(seq 1 "$n"); do
		for w in $workloads; do
			s="$seed"
			if [ "${VARY:-0}" = 1 ]; then s=$((seed + i)); fi
			echo "set $set run $i/$n $w seed $s" >&2
			bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$out/run.txt"
			tail -n 1 "$out/run.txt" >>"$out/$set-$w.jsonl"
			# The client.* readings of the run, as one JSON object a line.
			awk 'BEGIN { printf "{" } $1 ~ /^client\./ { printf "%s\"%s\": %s", (n++ ? ", " : ""), $1, $2 } END { print "}" }' "$out/run.txt" >>"$out/$set-$w.client.jsonl"
		done
	done
done
python3 - "$out" <<'EOF'
import json, statistics, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
failed = False

def compare(values, better):
    """Both sets' medians and spreads, and how much worse B's median is."""
    med = {s: statistics.median(values[s]) for s in "AB"}
    iqr = {}
    for s in "AB":
        q = statistics.quantiles(values[s], n=4)
        iqr[s] = (q[2] - q[0]) / med[s]
    worse = (med["B"] - med["A"]) / med["A"]
    return med, iqr, -worse if better == "higher" else worse

print(f"{'workload':16} {'metric':28} {'median A':>14} {'median B':>14} {'B worse':>8} {'iqr A':>7} {'iqr B':>7} {'bound':>6}")
for w in (w["name"] for w in bench["workloads"]):
    runs = {s: [json.loads(l) for l in open(f"{out}/{s}-{w}.jsonl")] for s in "AB"}
    client = {s: [json.loads(l) for l in open(f"{out}/{s}-{w}.client.jsonl")] for s in "AB"}
    for s in "AB":
        bad = [r for r in runs[s] if not r["correct"] or r["failed"]]
        if bad:
            failed = True
            print(f"{w}: set {s} has {len(bad)} incorrect runs")
    for m in bench["end_to_end"]:
        med, iqr, worse = compare({s: [r["metrics"][m["name"]]["value"] for r in runs[s]] for s in "AB"}, m["better"])
        judged = m["name"] != "setup_s" and min(len(runs[s]) for s in "AB") >= 10
        ok = worse <= m["bound"] and not (judged and max(iqr.values()) > m["bound"])
        failed |= not ok
        print(f"{w:16} {m['name']:28} {med['A']:14.4f} {med['B']:14.4f} {worse:+8.2%} {iqr['A']:7.2%} {iqr['B']:7.2%} {m['bound']:6.0%} {'PASS' if ok else 'FAIL'}")
    for name in client["A"][0]:
        better = "higher" if name.endswith("_per_s") else "lower"
        med, iqr, worse = compare({s: [r[name] for r in client[s]] for s in "AB"}, better)
        print(f"{w:16} {name:28} {med['A']:14.4f} {med['B']:14.4f} {worse:+8.2%} {iqr['A']:7.2%} {iqr['B']:7.2%} {'-':>6} info")
sys.exit(1 if failed else 0)
EOF
