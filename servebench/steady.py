#!/usr/bin/env python3
"""Steadiness check: run sets of every workload and print each metric's spread.

    python3 servebench/steady.py [--sets 2] [--runs 10] [--gap 60]
                                 [--seconds S] [--workloads a,b] [--out FILE]

Within a set, run i of every workload uses seed base+i and the workloads
take turns (w1 s1, w2 s1, ..., w1 s2, ...), so a slow stretch of the host
spreads over all of them; sets are separated by --gap seconds. For each
set, workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(n=4)), min, max and the spread (Q3 - Q1) / median
against the metric's bound from BENCHMARK.json; between consecutive sets
it prints how far the second median moved in the worse direction. A
spread above a third of its bound is flagged '!', above the bound 'FAIL'.
Run from the root of a checkout; every run goes through servebench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "servebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.time() - t0
    if len(lines) > 1:  # the detail line: host fingerprint, probe, phases
        result["detail"] = json.loads(lines[-2])
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--gap", type=float, default=60.0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    sets = []  # sets[k][workload] -> list of results
    for k in range(args.sets):
        if k:
            time.sleep(args.gap)
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                r = run_once(w, args.seed_base + i, args.seconds)
                runs[w].append(r)
                host = r.get("detail", {}).get("host", {})
                print(f"set {k} {w} seed {args.seed_base + i}: "
                      f"correct={r['correct']} failed={r['failed']}/"
                      f"{r['attempted']} wall={r['wall_s']:.1f}s "
                      f"probe={host.get('cpu_probe_s', 0):.3f}s "
                      f"steal={host.get('steal_share', 0):.3f}",
                      file=sys.stderr)
        sets.append(runs)

    ok = True
    for k, runs in enumerate(sets):
        print(f"== set {k} ==")
        for w in workloads:
            rs = runs[w]
            shares = {r["failed"] / r["attempted"] for r in rs}
            correct = all(r["correct"] for r in rs)
            ok &= correct
            print(f"{w}: {len(rs)} runs, correct={correct}, "
                  f"failed shares={sorted(shares)}, "
                  f"wall max={max(r['wall_s'] for r in rs):.1f}s")
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in rs
                        if m["name"] in r["metrics"]]
                if len(vals) < len(rs):
                    print(f"  {m['name']:<16} missing in "
                          f"{len(rs) - len(vals)} runs")
                    ok = False
                    continue
                q1, med, q3, sp = spread(vals)
                flag = ""
                if m["name"] != "setup_s":
                    if sp > m["bound"]:
                        flag, ok = "FAIL", False
                    elif sp > m["bound"] / 3:
                        flag = "!"
                print(f"  {m['name']:<16} median {med:<12.6g} q1 {q1:<12.6g} "
                      f"q3 {q3:<12.6g} min {min(vals):<12.6g} "
                      f"max {max(vals):<12.6g} spread {sp:6.3f} "
                      f"bound {m['bound']} {flag}")
    for k in range(1, len(sets)):
        print(f"== set {k} vs set {k - 1}: median moved (worse direction) ==")
        for w in workloads:
            for m in metrics:
                a = statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in sets[k - 1][w])
                b = statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in sets[k][w])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "FAIL" if worse > m["bound"] else ""
                ok &= not flag
                print(f"  {w:<14} {m['name']:<16} {a:<12.6g} -> {b:<12.6g} "
                      f"worse by {worse:+.3f} (bound {m['bound']}) {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
