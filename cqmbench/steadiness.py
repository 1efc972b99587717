#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady it is.

For each end-to-end metric it prints the median, the quartiles and the
spread (third minus first quartile, as a share of the median, computed with
statistics.quantiles(values, n=4)) beside the metric's bound from
BENCHMARK.json, and fails when any spread is over its bound. It also
asserts that the fixed-work counts of fleet-join (sources, series) repeat
exactly and reports how far the /metrics page size moves. With --save it
writes the values to a JSON file; with --compare it reads such a file from
an earlier set and fails when a median of this set is worse than the
earlier one by more than the metric's bound; --log keeps every run's full
output. Run from the repository root:

    python3 cqmbench/steadiness.py --workload steady --seeds 1-10 --save a.json
    python3 cqmbench/steadiness.py --workload steady --seeds 1-10 --compare a.json
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save", help="write this set's values to a JSON file")
    ap.add_argument("--compare", help="JSON file of an earlier set to compare medians with")
    ap.add_argument("--log", help="append every run's full output to this file")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    values, fixed, walls, failed = {}, [], [], False
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        walls.append(time.time() - start)
        if args.log:
            with open(args.log, "a") as f:
                f.write(f"### {' '.join(cmd)}\n{proc.stdout}{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: correct={res['correct']} failed={res['failed']}\n{proc.stdout}")
            failed = True
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in lines:
            hit = re.match(r"\s+fixed work: (\d+) sources, (\d+) series, (\d+) page bytes", line)
            if hit:
                fixed.append(tuple(int(g) for g in hit.groups()))
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: {walls[-1]:.1f} s wall: {shown}", flush=True)

    print(f"\n{args.workload}: {len(walls)} runs of {seconds} s, wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'ok':>4}")
    for name in sorted(values):
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        ok = ""
        if bound is not None:
            ok = "yes" if spread < bound / 3 else ("wide" if spread <= bound else "NO")
            failed = failed or spread > bound
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6} {ok:>4}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values}, f)
    if args.compare:
        earlier = json.load(open(args.compare))["values"]
        print(f"\nagainst {args.compare}:")
        for name in sorted(bounds):
            if name not in values or name not in earlier:
                continue
            was, now = statistics.median(earlier[name]), statistics.median(values[name])
            # Positive means this set is worse than the earlier one.
            worse = (now - was) / was if better[name] == "lower" else (was - now) / was
            ok = worse <= bounds[name]
            failed = failed or not ok
            print(f"{name:32} {was:12.6g} -> {now:12.6g} worse by {worse:+8.4f} bound {bounds[name]:5} {'ok' if ok else 'NO'}")

    if fixed:
        sources = {f[0] for f in fixed}
        series = {f[1] for f in fixed}
        sizes = [f[2] for f in fixed]
        drift = (max(sizes) - min(sizes)) / statistics.median(sizes)
        print(f"fixed work: sources {sorted(sources)}, series {sorted(series)}, page bytes {min(sizes)}..{max(sizes)} (drift {drift:.2e})")
        if args.workload == "fleet-join" and (len(sources) != 1 or len(series) != 1):
            print("FIXED WORK DRIFTED: fleet-join sources or series differ between runs")
            failed = True
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
