"""The workload process: set up one workload, run its ops closed-loop, report.

    python3 perfbench/worker.py --workload algebra-large --seed 1 --seconds 18 --trace 0 --probes 8
    python3 perfbench/worker.py --workload algebra-large --seed 1 --probe

Run from the repository root with PYTHONPATH=src; run.py does this and
pins the environment. With --probe the process sets up, runs the first
op and prints the monotonic clock, so the caller can time set-up from
interpreter start. Otherwise it warms up for one op (in-process
workloads), runs ops until --seconds of op time have passed (rounded to
the nearest cycle boundary; cli-cold runs the number of cycles that
--seconds gives at its nominal invocation time), starts --probes fresh set-up probes spread
over that time, and prints one JSON line. Every window of ops and every
probe is timed between two measurements of host speed (yardstick.py),
and the timing metrics are scaled by them (each workload names the
meter most like its work). After the timed phase it runs
the workload's known-defect cases once each, untimed and outside the
counts of attempted and failed ops, and reports which reproduced.

With --trace 1, calls alternate traced and untraced slot by slot, so
the traced calls' rate against the untraced calls' rate measures the
tracing overhead on the same mix, and spans go to .perfbench_out/ at
exit. The probes of a traced run time the imports of numpy (and of
kaspin.cli in cli-cold) instead of set-up.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

import yardstick
from spans import ROOT, Tracer, summarize

WORKLOADS = {
    "cli-cold": ("wl_cli", "Workload"),
    "algebra-large": ("wl_algebra", "large"),
    "algebra-small": ("wl_algebra", "small"),
    "campaigns": ("wl_campaigns", "Workload"),
}
LAYERS = ("cli", "ka_core", "clifford_rep", "spinor_square", "lowdim", "geometry_lab", "bench")
OUT_DIR = ".perfbench_out"
OVERRUN_S = 60  # a cycle may finish after --seconds, but never this much later
WINDOW_S = 0.25  # shortest window of whole ops between two host-speed measurements
PROBE_TIMEOUT_S = 60
CLI_IMPORT = "import time, kaspin.cli; print(time.monotonic())"
NUMPY_IMPORT = "import time, numpy; print(time.monotonic())"


def make_workload(name, seed, tracer):
    module, factory = WORKLOADS[name]
    return getattr(importlib.import_module(module), factory)(seed, tracer)


def is_traced(j, cycle_len):
    """Every other call, with the parity flipped each cycle when cycles are even.

    Over two cycles every slot of the mix is traced once and untraced once.
    """
    shift = j // cycle_len if cycle_len % 2 == 0 else 0
    return (j + shift) % 2 == 1


def cycles_for(seconds, wl):
    """Cycles of a per-invocation run: --seconds at the nominal invocation time."""
    return max(1, round(seconds / (wl.cycle_len * wl.nominal_op_s)))


def tail_latency(values):
    """op_tail_ms: the 90th percentile and the count of samples beyond it.

    Also the highest percentile with at least ten samples beyond it, and
    its value (None with ten samples or fewer), for the report. With
    hundreds to thousands of ops a run, that percentile (p98 to p99.6)
    reads the shared host's brief stalls more than the program: between
    runs of the same code it moved by up to 0.39 of its median (quartile
    distance), the 90th by at most 0.24. A stall that hits fewer than one
    op in ten still costs ops_per_s.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(0.9 * n))
    if n <= 10:
        return ordered[rank - 1], n - rank, None, None  # no percentile has ten beyond
    return ordered[rank - 1], n - rank, ordered[n - 11], 100.0 * (n - 10) / n


def environment(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "numba": "absent" if importlib.util.find_spec("numba") is None else version("numba"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", os.path.join("tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def time_to_done(cmd):
    """Seconds from just before a fresh process starts until it prints its done clock."""
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def probe_commands(args, per_invocation):
    """Metric name -> command of the fresh processes this run times."""
    cli = [sys.executable, "-c", CLI_IMPORT]
    if args.trace:
        cmds = {"floor.import_numpy_s": [sys.executable, "-c", NUMPY_IMPORT]}
        if per_invocation:
            cmds["cli.import_s"] = cli
        return cmds
    if per_invocation:
        # every invocation pays its own set-up: a fresh interpreter's import
        return {"setup_s": cli}
    return {"setup_s": [sys.executable, os.path.abspath(__file__),
                        "--workload", args.workload, "--seed", str(args.seed), "--probe"]}


def run(args):
    tracer = Tracer()
    wl = make_workload(args.workload, args.seed, tracer)
    # a timed op is one invocation in cli-cold, one whole cycle of the mix elsewhere
    calls_per_op = 1 if wl.per_invocation else wl.cycle_len
    tracer.enabled = bool(args.trace)
    wl.setup()
    tracer.enabled = False
    start = 0 if wl.per_invocation else calls_per_op  # one untimed warm-up op in process
    for i in range(start):
        wl.run_op(i)
    i = start
    wl.counts.clear()

    probe_cmds = probe_commands(args, wl.per_invocation)
    probe_raw = {name: [] for name in probe_cmds}
    probe_s = {name: [] for name in probe_cmds}
    if args.probes > 1:
        for cmd in probe_cmds.values():
            time_to_done(cmd)  # compiles bytecode and warms the file cache

    def probe_due(timed, final):
        # probes are spread evenly over the timed phase, between windows
        done = len(next(iter(probe_s.values())))
        return done < args.probes and (final or timed >= done * args.seconds / args.probes)

    meter = wl.meter
    host = [meter.measure()]  # the meter's time at every boundary between timed units

    def host_scale():
        """Scale for the unit just timed, from the meter's time before and after it."""
        host.append(meter.measure())
        return meter.nominal / (0.5 * (host[-2] + host[-1]))

    latencies, traced_flags, outcomes, op_ms = [], [], [], []
    windows = []  # (first op, end op, op seconds, host scale): whole ops lasting >= WINDOW_S
    timed = window_s = cycle_start = 0.0  # op time only; probes run between windows
    window_first = 0
    while True:
        op_start = time.monotonic()
        for _ in range(calls_per_op):
            traced = bool(args.trace) and is_traced(i - start, wl.cycle_len)
            tracer.enabled = traced
            tracer.op = i
            s = time.perf_counter()
            outcome = tracer.call(ROOT, wl.run_op, i)
            dt = time.perf_counter() - s
            tracer.enabled = False
            latencies.append(dt)
            traced_flags.append(traced)
            outcomes.append(outcome)
            i += 1
        op = time.monotonic() - op_start
        op_ms.append(1e3 * op)
        timed += op
        window_s += op
        done = False
        if (i - start) % wl.cycle_len == 0:
            cycle, cycle_start = timed - cycle_start, timed
            if wl.per_invocation:
                # a few cycles a run: their number follows from --seconds alone, so
                # every run has the same mix however fast the host is at the time
                done = i - start >= cycles_for(args.seconds, wl) * wl.cycle_len
            else:
                # stop at the cycle boundary nearest --seconds, so every run has the same mix
                done = timed + cycle / 2 >= args.seconds
            done = done or timed >= args.seconds + OVERRUN_S
        if window_s >= WINDOW_S or done:
            windows.append((window_first, len(op_ms), window_s, host_scale()))
            window_first, window_s = len(op_ms), 0.0
            while probe_due(timed, done):
                for name, cmd in probe_cmds.items():
                    raw = time_to_done(cmd)
                    probe_raw[name].append(raw)
                    probe_s[name].append(raw * host_scale())
        if done:
            break

    defects = [wl.run_defect(j) for j in range(len(wl.defect_cases))]
    oracle = wl.oracle_agreement(load_oracles)
    who = resource.RUSAGE_CHILDREN if wl.per_invocation else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    scaled_ms = [v * f for first, end, _, f in windows for v in op_ms[first:end]]
    scaled_s = sum(sec * f for _, _, sec, f in windows)
    tail, tail_beyond, top, top_pct = tail_latency(scaled_ms)
    failed = [o for o in outcomes if not o.ok]
    unexpected = [f"{o.kind}: {o.reason}" for o in failed + defects if not o.ok and not o.known]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(args.seed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "known_defects": sorted(o.known for o in defects if o.known),
        "defects_not_reproduced": [o.kind for o in defects if o.ok],
        "unexpected_failures": unexpected[:20],
        "unexpected_count": len(unexpected),
        "timed_s": timed,
        "ops": len(op_ms),
        "windows": len(windows),
        "ops_per_s": len(scaled_ms) / scaled_s,
        "op_p50_ms": float(np.median(scaled_ms)),
        "op_tail_ms": tail,
        "op_tail_beyond": tail_beyond,
        "op_ten_beyond_ms": top,
        "op_ten_beyond_pct": top_pct,
        "raw_ops_per_s": len(op_ms) / timed,
        "raw_op_p50_ms": float(np.median(op_ms)),
        "op_ms": op_ms,
        "window_scale": [f for *_, f in windows],
        "window_ops": [end - first for first, end, *_ in windows],
        "host_meter": {"name": meter.name, "nominal": meter.nominal, "values": host},
        "probe_raw_s": probe_raw,
        "probe_s": probe_s,
        "probes": {name: float(np.median(v)) for name, v in probe_s.items()},
        "peak_rss_mb": peak_rss_mb,
        "oracle_max_abs_diff": oracle,
        "layers": {},
    }
    if args.trace:
        result["layers"] = layer_report(wl, tracer, latencies, traced_flags, oracle)
        result["layers"].update(result["probes"])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz"))
    return result


def layer_report(wl, tracer, latencies, traced_flags, oracle):
    durations, self_ns, root_ns, roots = summarize(tracer.spans)
    m = wl.layer_metrics(durations, roots)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = self_ns.get(layer, 0) / root_ns if root_ns else 0.0
    unknown = set(self_ns) - set(LAYERS)
    if unknown:
        raise RuntimeError(f"spans name unknown layers: {sorted(unknown)}")
    traced = [v for v, t in zip(latencies, traced_flags) if t]
    untraced = [v for v, t in zip(latencies, traced_flags) if not t]
    if traced and untraced:
        # calls/s of traced calls over calls/s of untraced calls, on the same mix
        m["trace.ops_per_s_ratio"] = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
    for label, diff in oracle.items():
        m[f"ka_core.oracle_max_abs_diff.{label}"] = diff
    return m


def probe(args):
    wl = make_workload(args.workload, args.seed, Tracer())
    wl.setup()
    wl.run_op(0)
    print(time.monotonic())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    timing = "--probe" not in sys.argv[1:]
    parser.add_argument("--seconds", type=float, required=timing)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=timing)
    parser.add_argument("--probes", type=int, required=timing)
    args = parser.parse_args()
    if args.probe:
        probe(args)
    else:
        print(json.dumps(run(args)))


if __name__ == "__main__":
    sys.exit(main())
