#!/usr/bin/env python3
"""Steadiness mode: repeat the benchmark and report each metric's spread.

Runs `bash perfbench/run.sh` once per seed for each workload, then prints
for every metric the report prints (gated or not) its median, first and
third quartile, and the relative spread (Q3 - Q1) / median, next to the
bound BENCHMARK.json sets. This is the evidence the bounds in
BENCHMARK.json rest on.

Run it from the repository root:

    python3 perfbench/steady.py --seeds 1-10 --out .bench_build/steady.json
    python3 perfbench/steady.py --workloads attack --seeds 1-5 \
        --baseline .bench_build/steady.json

With --baseline, medians are compared against an earlier --out file, but
only when both were taken on the same host shape; otherwise it says so.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, extra):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host: ")), "")
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
        # The report prints every metric, gated or not, as
        # "metric <name> <value> <unit> <note>".
        result["printed"] = {f[1]: {"value": float(f[2]), "unit": f[3]}
                             for f in (l.split() for l in lines if l.startswith("metric "))}
    return proc.returncode, host, result, proc.stdout + proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", help="write the summary (with host shape) here")
    ap.add_argument("--baseline", help="compare medians with this earlier --out file")
    ap.add_argument("--extra", default="", help="extra benchmark flags, e.g. \"-front-args '-cache-size 11'\"")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    extra = [x for x in re.findall(r"'[^']*'|\S+", args.extra)]
    extra = [x.strip("'") for x in extra]

    summary = {"host": None, "seconds": seconds, "workloads": {}}
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            code, host, result, log = run_once(w, seed, seconds, extra)
            # A failed or incorrect run ends the steadiness run: dropping it
            # would understate the spread the bounds rest on.
            if code != 0 or not result or not result["correct"]:
                sys.stdout.write(log[-3000:])
                sys.exit(f"steady: {w} seed {seed} failed (exit {code})")
            summary["host"] = summary["host"] or host
            if host != summary["host"]:
                print(f"steady: host shape changed during the runs:\n  {summary['host']}\n  {host}")
            for name, m in result["printed"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        rows = {}
        # A metric has fewer values than runs when some runs did not report
        # it, as the latency figures of a run whose generator fell behind.
        print(f"\n{w}: {'metric':28} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in sorted(values.items()):
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            flag = "" if bound is None or spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"{w}: {name:28} {len(vs):3} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
        summary["workloads"][w] = rows
        print()
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")

    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
        if base.get("host") != summary["host"]:
            print("baseline: no baseline of the same host shape; medians not compared")
            print(f"  baseline: {base.get('host')}\n  this run: {summary['host']}")
        else:
            for w, rows in summary["workloads"].items():
                for name, row in rows.items():
                    b = base["workloads"].get(w, {}).get(name)
                    if b:
                        change = row["median"] / b["median"] - 1 if b["median"] else float("nan")
                        print(f"baseline {w} {name}: {b['median']:.4f} -> {row['median']:.4f} ({change:+.1%})")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
