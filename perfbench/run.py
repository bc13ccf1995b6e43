"""kaspin benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload algebra-large --seed 1 --seconds 18 --trace 0

Run from the root of a kaspin source tree (it needs src/kaspin and
tests/oracles.py). The workloads are listed in BENCHMARK.json and
described in perfbench/README.md. The command pins the environment
(one CPU, one BLAS thread, PYTHONPATH=src, a fixed hash seed), runs the workload
in one process, which also times fresh set-up processes spread over the
run, and prints a short report followed by one JSON line: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
of BENCHMARK.json. Per-layer metrics of a layer the workload does not
call read 0. Reports and spans go to .perfbench_out/.

--smoke makes one set-up probe instead of five and no warm-up probe;
the benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
PROBES = 5
PROCESS_TIMEOUT_S = 170
ORACLE_TOL = 1e-9  # unit-normal operands; the kernels and oracles differ only in summation order
PINNED_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("KASPIN_")}
    env.update(PINNED_ENV)
    return env


def main():
    parser = argparse.ArgumentParser(description="kaspin benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", os.path.join("src", "kaspin", "cli.py"),
                   os.path.join("tests", "oracles.py")):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the root of a kaspin source tree",
                  file=sys.stderr)
            return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    # one CPU for the workload process and its children: the host-speed loop
    # then runs on the CPU the work runs on (the two CPUs of a shared VM can
    # differ in speed by a factor of two, and a process may move between them)
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass  # left unpinned; the report's env line lists the CPUs used
    try:
        report = measure(args, pinned_env())
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["layers"] if args.trace else report["end_to_end"]
    extra = set(values) - {m["name"] for m in wanted}
    if extra:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(extra)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print_report(report)
    correct = (report["failed"] == 0 and report["unexpected_count"] == 0
               and all(d <= ORACLE_TOL for d in report["oracle_max_abs_diff"].values()))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def measure(args, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--probes", str(1 if args.smoke else PROBES)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        result["end_to_end"] = {
            "setup_s": result["probes"]["setup_s"],
            "ops_per_s": result["ops_per_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_tail_ms": result["op_tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return result


def print_report(r):
    print(f"# kaspin benchmark: {r['workload']} seed={r['seed']} trace={r['trace']}")
    print(f"# env: {json.dumps(r['env'], sort_keys=True)}")
    print(f"# checked calls: {r['attempted']} attempted, {r['failed']} failed "
          f"(fail_frac {r['failed'] / r['attempted']:.4f})")
    meter = r["host_meter"]
    print(f"# op figures: {r['ops']} timed ops in {r['timed_s']:.2f} s, host speed measured at "
          f"{len(meter['values'])} points ({meter['name']} {min(meter['values']):.4f}-"
          f"{max(meter['values']):.4f}, nominal {meter['nominal']}); "
          f"unscaled {r['raw_ops_per_s']:.4f} ops/s, p50 {r['raw_op_p50_ms']:.4f} ms")
    top = ("none" if r["op_ten_beyond_ms"] is None
           else f"p{r['op_ten_beyond_pct']:.2f} {r['op_ten_beyond_ms']:.4f} ms")
    print(f"# op_tail_ms: p90 of all {r['ops']} ops, {r['op_tail_beyond']} samples beyond it; "
          f"highest percentile with ten beyond: {top}")
    for name, values in r["probe_s"].items():
        print(f"# {name}: median of {len(values)} fresh processes, host-scaled "
              f"[{', '.join(f'{v:.4f}' for v in values)}]")
    print(f"# known defects reproduced (untimed, not in attempted/failed): "
          f"{', '.join(r['known_defects']) or 'none'}")
    if r["defects_not_reproduced"]:
        print(f"# known-defect cases that passed: {', '.join(r['defects_not_reproduced'])}")
    print(f"# unexpected failures: {r['unexpected_count']}")
    for line in r["unexpected_failures"]:
        print(f"#   {line}")
    for label, diff in r["oracle_max_abs_diff"].items():
        print(f"# kernel vs tests/oracles.py at {label}: max|diff| {diff:.1e}")
    source = r["layers"] if r["trace"] else r["end_to_end"]
    for name, value in sorted(source.items()):
        print(f"# {name} = {value!r}")


if __name__ == "__main__":
    sys.exit(main())
