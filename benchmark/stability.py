#!/usr/bin/env python3
"""Checks that the benchmark agrees with itself.

  stability.py repeat [--seed N]   two full sets (end-to-end + traced) of the
                                   same seed, back to back: every end-to-end
                                   metric must agree within its bound and every
                                   exact-count metric must be equal.
  stability.py spread [--seeds K]  K end-to-end runs per workload, each with
                                   another seed: the distance between the first
                                   and third quartile of every end-to-end metric,
                                   as a share of its median, must stay below its
                                   bound (and should stay below a third of it).
  stability.py baseline [--sets K] K full sets of one seed; writes the median,
                                   lowest and highest of every metric to
                                   baseline/<workload>.json.

All read the command, workloads and bounds from ../BENCHMARK.json and run it
from the repository root, exactly as the driver does. Exit code 1 on
disagreement.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def invoke(*args):
    proc = subprocess.run(
        SPEC["command"] + list(args), cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    return proc.returncode, proc.stdout.splitlines()


def run(workload, seed, trace):
    """One run: (metrics by name, noisy flag)."""
    code, lines = invoke(
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    )
    if code != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {code}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: incorrect result {lines[-1]}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, "noisy true" in lines


def exact_names():
    code, lines = invoke("--list")
    if code != 0:
        sys.exit("--list failed")
    return {line.split()[1] for line in lines if line.endswith(" exact")}


def worse_by(name, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    if E2E[name]["better"] == "lower":
        return second / first - 1
    return first / second - 1


def repeat(seed, workloads):
    exact = exact_names()
    ok = True
    print(f"{'workload':10} {'metric':32} {'first':>14} {'second':>14} {'ratio':>8} {'bound':>6}  verdict")
    for workload in workloads:
        sets = [
            {trace: run(workload, seed, trace) for trace in (0, 1)} for _ in range(2)
        ]
        noisy = ["noisy" if any(s[t][1] for t in (0, 1)) else "quiet" for s in sets]
        for trace in (0, 1):
            first, second = sets[0][trace][0], sets[1][trace][0]
            for name in first:
                a, b = first[name], second[name]
                bound = E2E.get(name, {}).get("bound")
                verdict = ""
                if name in exact:
                    verdict = "equal" if a == b else "DIFFERS (exact)"
                    ok &= a == b
                elif bound is not None:
                    off = max(worse_by(name, a, b), worse_by(name, b, a))
                    verdict = "ok" if off <= bound else "BEYOND BOUND"
                    ok &= off <= bound
                ratio = f"{b / a:8.3f}" if a else f"{'-':>8}"
                print(
                    f"{workload:10} {name:32} {a:14.4f} {b:14.4f} {ratio} "
                    f"{'' if bound is None else bound:>6}  {verdict}"
                )
        print(f"{workload:10} machine during the two sets: {noisy[0]}, {noisy[1]}")
    return ok


def spread(seeds, workloads):
    ok = True
    print(f"{'workload':10} {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        runs = [run(workload, seed, 0) for seed in seeds]
        noisy = sum(flag for _, flag in runs)
        for name, metric in E2E.items():
            values = [values[name] for values, _ in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            share = (q3 - q1) / median
            if name == "setup_s" or share <= metric["bound"] / 3:
                verdict = "ok"
            elif share <= metric["bound"]:
                verdict = "ok (above a third of the bound)"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(
                f"{workload:10} {name:26} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                f"{share:7.4f} {metric['bound']:6}  {verdict}"
            )
        print(f"{workload:10} runs flagged noisy: {noisy} of {len(runs)}")
    return ok


def cpu_model():
    for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def baseline(seed, sets, workloads):
    for workload in workloads:
        runs = {0: [], 1: []}
        for _ in range(sets):
            for trace in (0, 1):
                runs[trace].append(run(workload, seed, trace)[0])
        doc = {
            "workload": workload, "seed": seed, "sets": sets,
            "run_seconds": SPEC["run_seconds"], "cpu": cpu_model(), "nproc": os.cpu_count(),
        }
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            doc[key] = {
                name: {
                    "median": statistics.median(r[name] for r in runs[trace]),
                    "min": min(r[name] for r in runs[trace]),
                    "max": max(r[name] for r in runs[trace]),
                }
                for name in runs[trace][0]
            }
        path = ROOT / "benchmark" / "baseline" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["repeat", "spread", "baseline"])
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=5)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if args.mode == "repeat":
        ok = repeat(args.seed, workloads)
    elif args.mode == "baseline":
        ok = baseline(args.seed, args.sets, workloads)
    else:
        ok = spread([args.seed + i for i in range(args.seeds)], workloads)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
