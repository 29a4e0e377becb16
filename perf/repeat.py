#!/usr/bin/env python3
"""Repeatability check and ledger writer for the perf benchmark.

Runs two alternating sets (A, B) of N untraced runs of the same build on every
workload, each run with another seed, and prints for every workload x
end-to-end metric each set's median and quartiles, the spread (Q3-Q1 over the
median, as `statistics.quantiles(values, n=4)` gives them) and the relative
difference between the two medians. Fails if a spread or a difference exceeds
the metric's bound in BENCHMARK.json (`setup_s` is exempt from the spread
rule, as in the driver). Then makes T traced runs per workload with one seed
and fails if any metric marked `exact` differs between them.

    python3 perf/repeat.py [--runs N] [--trace-runs T] [--seconds S]
                           [--workloads a,b] [--write-baseline]

`--write-baseline` rewrites perf/baseline/{repeatability.txt,BENCH_e2e.json,
BENCH_layers.json} from this invocation's runs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "samples": len(values), "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    ap.add_argument("--trace-runs", type=int, default=3, help="traced runs per workload (>= 2)")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    if args.runs < 5 or args.trace_runs < 2:
        sys.exit("need --runs >= 5 and --trace-runs >= 2")

    seconds = args.seconds or SPEC["run_seconds"]
    workloads = [w["name"] for w in SPEC["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    listing = subprocess.check_output(SPEC["command"] + ["--list-metrics"], cwd=ROOT, text=True)
    exact = [l.split("\t")[1] for l in listing.splitlines() if l.endswith("\texact")]

    lines = []

    def emit(text=""):
        print(text, flush=True)
        lines.append(text)

    machine = {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "run_seconds": seconds,
               "runs_per_set": args.runs, "trace_runs": args.trace_runs}
    emit(f"# perf repeatability: two alternating sets of {args.runs} runs per workload, "
         f"{seconds} s each, seeds 1..{2 * args.runs}")
    emit(f"# nproc={machine['nproc']} cpu=\"{machine['cpu_model']}\"")
    failures = []
    e2e_ledger, layer_ledger, cliffs = {}, {}, {}

    for workload in workloads:
        sets = {"A": [], "B": []}
        walls = []
        for i in range(2 * args.runs):
            values, wall = run_once(workload, 1 + i, seconds, 0)
            sets["AB"[i % 2]].append(values)
            walls.append(wall)
        emit()
        emit(f"## {workload}  (run wall time: median {statistics.median(walls):.1f} s, "
             f"max {max(walls):.1f} s)")
        emit(f"{'metric':<18} {'bound':>6} | {'A median':>12} {'A q1':>12} {'A q3':>12} {'A spread':>8} | "
             f"{'B median':>12} {'B q1':>12} {'B q3':>12} {'B spread':>8} | {'B vs A':>8}  verdict")
        e2e_ledger[workload] = {}
        for name, spec in bounds.items():
            a = summary([r[name] for r in sets["A"]])
            b = summary([r[name] for r in sets["B"]])
            worse = (b["median"] - a["median"]) / a["median"]
            if spec["better"] == "higher":
                worse = -worse
            problems = []
            if name != "setup_s" and max(a["spread"], b["spread"]) > spec["bound"]:
                problems.append("spread over bound")
            if abs(worse) > spec["bound"]:
                problems.append("sets differ by more than the bound")
            verdict = "ok" if not problems else "FAIL: " + ", ".join(problems)
            failures += [f"{workload}/{name}: {p}" for p in problems]
            emit(f"{name:<18} {spec['bound']:>6.2f} | {a['median']:>12.4f} {a['q1']:>12.4f} "
                 f"{a['q3']:>12.4f} {a['spread']:>8.4f} | {b['median']:>12.4f} {b['q1']:>12.4f} "
                 f"{b['q3']:>12.4f} {b['spread']:>8.4f} | {worse:>+8.4f}  {verdict}")
            both = summary([r[name] for r in sets["A"] + sets["B"]])
            e2e_ledger[workload][name] = {**both, "unit": spec["unit"], "bound": spec["bound"]}

        traced = [run_once(workload, 1, seconds, 1)[0] for _ in range(args.trace_runs)]
        drifted = [n for n in exact if len({r[n] for r in traced}) != 1]
        emit(f"exact-repeat guard over {args.trace_runs} traced runs of seed 1: "
             f"{len(exact) - len(drifted)} of {len(exact)} exact metrics identical"
             + ("" if not drifted else "  FAIL: " + ", ".join(drifted)))
        failures += [f"{workload}/{n}: exact metric differs between runs of one seed" for n in drifted]
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        layer_ledger[workload] = {}
        for n in units:
            row = {**summary([r[n] for r in traced]), "unit": units[n], "exact": n in exact}
            del row["values"]  # three runs: the quartiles say it all
            layer_ledger[workload][n] = row
        # The ROADMAP's known cliffs, as rows rather than prose.
        med = {n: row["median"] for n, row in layer_ledger[workload].items()}
        cliffs[workload] = {
            "backend.socket_over_channel_us": med["backend.socket_over_channel_us"],
            "engine.cold_first_batch_ms": med["engine.cold_first_batch_ms"],
            "engine.delete_us/engine.ingest_us": med["engine.delete_us"] / med["engine.ingest_us"],
            "core.det_over_rand_ratio": med["core.det_over_rand_ratio"],
        }

    emit()
    emit("RESULT: " + ("every metric within its bound, exact counts identical" if not failures
                        else f"{len(failures)} failure(s)"))
    for f in failures:
        emit("  " + f)

    if args.write_baseline:
        base = os.path.join(HERE, "baseline")
        os.makedirs(base, exist_ok=True)
        with open(os.path.join(base, "repeatability.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
        for fname, doc in (
                ("BENCH_e2e.json", {"seeds": f"1..{2 * args.runs}", "workloads": e2e_ledger}),
                ("BENCH_layers.json", {"seeds": "1", "cliffs": cliffs, "workloads": layer_ledger})):
            with open(os.path.join(base, fname), "w") as f:
                json.dump({"machine": machine, **doc}, f, indent=1)
                f.write("\n")
    sys.exit(1 if failures else 0)


with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

if __name__ == "__main__":
    main()
