"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/stability.py --seeds 1           # each BENCHMARK.json workload once
    python3 perfbench/stability.py --workloads direct-lu --seeds 1-10 --out runs.json

Run from the root of a helmfem checkout.  For every workload and metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json, plus ``fail_frac``, the failed share of attempted ops.  A
failed run, or a spread of an end-to-end metric other than ``setup_s`` at
or above its bound, makes the exit code 1.  ``--out`` writes the runs and
the summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("implicit-nested", "direct-lu", "paper-cli")


def _seeds(tokens):
    out = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def run_workload(bench, workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        meta = next(json.loads(ln[5:]) for ln in proc.stdout.splitlines() if ln.startswith("meta "))
        runs.append({"seed": seed, "result": result, "meta": meta})
        vals = "" if trace else " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} passes={meta['pass_wall_s']} {vals}", flush=True)
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--seeds", nargs="+", default=["1-10"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    defs = bench["per_layer" if args.trace else "end_to_end"]
    ok, report = True, {}
    for workload in workloads:
        runs = run_workload(bench, workload, _seeds(args.seeds), seconds, args.trace)
        ok = ok and all(r["result"]["correct"] for r in runs)
        summary = {}
        for d in defs:
            s = summarize([r["result"]["metrics"][d["name"]]["value"] for r in runs])
            summary[d["name"]] = s
            bound, flag = d.get("bound"), ""
            if bound is not None:
                flag = ("below a third" if s["spread"] < bound / 3
                        else "below bound" if s["spread"] < bound else "OVER BOUND")
                ok = ok and (s["spread"] < bound or d["name"] == "setup_s")
            print(f"{workload:16s} {d['name']:34s} {d['unit']:6s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"{'' if bound is None else bound} {flag}")
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload:16s} {'fail_frac':34s} {'ratio':6s} {failed / attempted:.6g} "
              f"({failed} of {attempted} ops)")
        report[workload] = {"trace": args.trace, "seconds": seconds, "runs": runs,
                            "summary": summary, "fail_frac": failed / attempted}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
