"""Tests of the benchmark itself; run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(REPO, "perfbench")
sys.path.insert(0, BENCH)

from spans import ROOT, Tracer, summarize  # noqa: E402
from worker import is_traced, tail_latency  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def smoke(workload, trace, seed=3, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1]


def test_tail_latency_rule():
    # p90 with the count beyond it, then the highest percentile with ten beyond
    assert tail_latency(list(range(1, 1001))) == (900, 100, 990, 99.0)
    assert tail_latency(list(range(1, 21))) == (18, 2, 10, 50.0)
    assert tail_latency([5.0, 1.0, 3.0]) == (5.0, 0, None, None)


def test_traced_slots_balance_over_two_cycles():
    for cycle_len in (1, 2, 8, 25):
        for slot in range(cycle_len):
            flags = [is_traced(k * cycle_len + slot, cycle_len) for k in range(4)]
            assert 0 < sum(flags) < 4, (cycle_len, slot)
        ops = [is_traced(j, cycle_len) for j in range(4 * cycle_len)]
        assert abs(sum(ops) - 2 * cycle_len) <= 2


def test_self_time_subtracts_children():
    spans = [
        (ROOT, 0, 100, -1, 0),
        ("spinor_square.square.s31", 10, 40, 0, 0),
        ("geometry_lab.campaign.ads4.einstein", 50, 90, 0, 0),
        ("bench.callback", 60, 70, 2, 0),
        ("ka_core.get_tables.s31", 0, 5, -1, -1),  # set-up: no self share
    ]
    durations, self_ns, root_ns, roots = summarize(spans)
    assert (root_ns, roots) == (100, 1)
    assert self_ns == {"bench": 30 + 10, "spinor_square": 30, "geometry_lab": 30}
    assert durations["ka_core.get_tables.s31"] == [5]


def test_tracer_records_parent_and_op():
    tracer = Tracer()
    assert tracer.call("x.y", lambda: 7) == 7 and tracer.spans == []
    tracer.enabled = True
    tracer.op = 4
    tracer.call(ROOT, lambda: tracer.call("ka_core.wedge.s22", lambda: None))
    (child, *_), (root, *_) = tracer.spans[1], tracer.spans[0]
    assert (root, child) == (ROOT, "ka_core.wedge.s22")
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 4


def test_spec_names_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 for n in names)
    assert "setup_s" in names
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", ["algebra-large", "algebra-small", "campaigns"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_in_process_workloads(workload, trace):
    result, report = result_of(smoke(workload, trace))
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if workload == "campaigns":
        # the finite-difference false negatives stay visible, by name
        defects = next(line for line in report if line.startswith("# known defects"))
        assert "fd-chart-false-fail:einstein" in defects
    if trace:
        m = result["metrics"]
        assert m["floor.import_numpy_s"]["value"] > 0
        assert m["trace.ops_per_s_ratio"]["value"] > 0
        assert m["bench.self_share"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_cli_cold_reports_edge_payload_defects():
    import wl_cli

    result, report = result_of(smoke("cli-cold", 0))
    assert result["correct"] is True
    assert result["attempted"] == wl_cli.CYCLE_LEN  # one whole cycle
    assert result["failed"] == 0
    defects = next(line for line in report if line.startswith("# known defects"))
    assert all(name in defects for name in wl_cli.EDGE_DEFECTS.values())
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_cli_cycle_turns_over_signatures():
    import wl_cli

    seen = set()
    for k in range(len(wl_cli.SIGS)):
        plan = wl_cli.cycle_plan(k)
        assert len(plan) == wl_cli.CYCLE_LEN
        assert {m for _, m in plan if m is not None} == {0, 1, 2}  # every cycle, every signature
        seen.update((name, m) for name, m in plan if name in wl_cli.CHECKS)
    assert seen == {(name, m) for name in wl_cli.CHECKS for m in range(len(wl_cli.SIGS))}


@pytest.fixture
def cli_env(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(REPO, "src"))
    monkeypatch.chdir(REPO)


def test_cli_edge_payloads_reproduce_known_defects(cli_env):
    import wl_cli

    wl = wl_cli.Workload(0, Tracer())
    found = set()
    for j in range(len(wl.defect_cases)):
        outcome = wl.run_defect(j)
        assert not outcome.ok and outcome.known, outcome
        found.add(outcome.known)
    assert found == set(wl_cli.EDGE_DEFECTS.values())


def test_cli_invocations_are_deterministic_per_seed(cli_env):
    import wl_cli

    outputs = []
    for _ in range(2):
        wl = wl_cli.Workload(5, Tracer())
        assert wl.run_op(0).ok
        outputs.append(wl.cycle["sigs"][0]["square_stdout"])
    assert outputs[0] == outputs[1] and outputs[0]


def test_campaign_defect_cases_fail_and_perturbed_fd_controls_pass(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "src"))
    import wl_campaigns
    from campaign_plan import FD_PRESET, PLAN

    wl = wl_campaigns.Workload(0, Tracer())
    wl.setup()
    for j in range(len(wl.defect_cases)):
        outcome = wl.run_defect(j)
        assert not outcome.ok and outcome.known, outcome
    for i, (name, _, perturbed, _) in enumerate(PLAN):
        if name == FD_PRESET:
            assert perturbed and wl.run_op(i).ok


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("algebra-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
