"""Campaigns scored in stacked blocks: golden reports, block sizes, callbacks.

``tests/data/campaign_reports.json`` holds the reports of the per-point
campaign loop (every preset with each check it carries, clean and
perturbed, seeds 3 and 11, 20 points).  Regenerate it with

    PYTHONPATH=<checkout>/src python tests/test_campaign_blocks.py > tests/data/campaign_reports.json

against the checkout whose reports are the reference.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin import geometry_lab
from kaspin.geometry_lab import (
    christoffel,
    covariant_derivative_oneform,
    einstein_residual,
    heterotic_susy_residuals,
    hodge_star_chart,
    killing_pair_residual,
    modified_bianchi_residual,
    preset,
    ricci,
    riemann,
    run_campaign,
    walker_residuals,
)

FIXTURE = Path(__file__).parent / "data" / "campaign_reports.json"

CHECKS = {
    "minkowski": ("killing", "einstein"),
    "ads4": ("killing", "einstein", "walker"),
    "ads4-deformed-poly": ("killing", "einstein", "walker"),
    "ads4-deformed-bessel": ("einstein", "walker"),
    "heterotic-ppwave": ("killing", "einstein", "heterotic", "bianchi"),
    "walker-generic": ("einstein", "walker"),
}
SEEDS = (3, 11)
PERTURBS = (0.0, 0.1)
POINTS = 20


def ads4_callbacks(calls=None):
    """Exact AdS4 at lam = 1 as one-point callbacks: F = K = 1/y^2, q2 = delta/y^2, s_frak = 0.

    When calls is a list, every callback appends (its name, the shape of its argument).
    """

    def logged(name, fn):
        def callback(s):
            if calls is not None:
                calls.append((name, np.shape(s)))
            return fn(s)
        return callback

    def profile(s):
        return 1.0 / s[1] ** 2

    return {
        "lam": 1.0,
        "F": logged("F", profile),
        "K": logged("K", profile),
        "q2": logged("q2", lambda s: np.eye(2) / s[1] ** 2),
        "s_frak": logged("s_frak", lambda s: 0.0),
    }


def build(name, calls=None):
    return preset(name, ads4_callbacks(calls) if name == "walker-generic" else None)


def golden_cases():
    for name, checks in CHECKS.items():
        for check in checks:
            for perturb in PERTURBS:
                for seed in SEEDS:
                    yield f"{name}/{check}/{perturb}/{seed}", (name, check, perturb, seed)


def campaign(case, **kwargs):
    name, check, perturb, seed = case
    return run_campaign(build(name), check, n_points=POINTS, seed=seed, perturb=perturb, **kwargs)


CASES = dict(golden_cases())


# ---------------------------------------------------------------------------
# reports against the per-point loop
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reports():
    return {key: campaign(case) for key, case in CASES.items()}


def test_reports_match_the_per_point_golden_fixture(reports):
    golden = json.loads(FIXTURE.read_text())
    assert set(golden) == set(reports)
    for key, want in golden.items():
        got = reports[key]
        assert got["verdict"] == want["verdict"], key
        assert set(got["residuals"]) == set(want["residuals"]), key
        for name, res in want["residuals"].items():
            # floats survive the JSON round trip exactly, so this is byte identity
            assert got["residuals"][name]["max"] == res["max"], (key, name)
            assert got["residuals"][name]["mean"] == res["mean"], (key, name)
        assert {k: v for k, v in got.items() if k != "residuals"} == {
            k: v for k, v in want.items() if k != "residuals"
        }, key


def test_run_campaign_agrees_with_the_per_point_oracle(reports):
    from oracles import slow_run_campaign

    for key, (name, check, perturb, seed) in CASES.items():
        slow = slow_run_campaign(build(name), check, n_points=POINTS, seed=seed, perturb=perturb)
        fast = json.loads(json.dumps(reports[key]))
        for res in fast["residuals"].values():
            del res["worst_point"]
        assert fast == slow, key


def test_worst_point_reproduces_the_max_at_one_point(reports):
    from oracles import slow_point_residuals

    for key, (name, check, perturb, seed) in CASES.items():
        ps = build(name)
        if perturb:
            ps = geometry_lab._perturbed(ps, perturb)
        lower, upper = np.asarray(ps.sample_box).T
        for res_name, res in reports[key]["residuals"].items():
            x = np.array(res["worst_point"])
            assert x.shape == (4,) and np.all(lower <= x) and np.all(x <= upper)
            assert slow_point_residuals(ps, check, x)[res_name] == res["max"], (key, res_name)


def test_worst_point_is_the_first_of_equal_maxima():
    # the flat chart's Killing residuals are exactly zero everywhere
    report = run_campaign(preset("minkowski"), "killing", n_points=9, seed=4)
    first = geometry_lab._halton(9, 4)[0] * 4.0 - 2.0
    for res in report["residuals"].values():
        assert res["max"] == 0.0
        assert res["worst_point"] == first.tolist()


@pytest.mark.parametrize("block", [1, 7, 256])
def test_reports_are_identical_across_block_sizes(monkeypatch, block):
    cases = [(name, check, perturb, 5) for name, checks in CHECKS.items()
             for check in checks for perturb in PERTURBS]
    want = [json.dumps(campaign(case), sort_keys=True) for case in cases]
    monkeypatch.setattr(geometry_lab, "POINT_BLOCK", block)
    assert [json.dumps(campaign(case), sort_keys=True) for case in cases] == want


@pytest.mark.parametrize("check, per_point", [
    # each distinct stencil point once per jet: 1 + 2d^2 = 9 points at order 2, 5 at order 1
    # the einstein block reads each field once, at order 2, for the chart and the profiles
    pytest.param("einstein", {"F": 9, "K": 9, "q2": 9}, id="einstein"),
    pytest.param("walker", {"F": 5, "K": 9, "q2": 5}, id="walker"),
])
def test_walker_generic_callbacks_see_one_point(check, per_point):
    calls = []
    ps = build("walker-generic", calls)
    run_campaign(ps, check, n_points=POINTS, seed=3)
    assert calls and all(shape == (2,) for _, shape in calls)
    for field, count in per_point.items():
        assert sum(name == field for name, _ in calls) == count * POINTS, field


def counted_surface_preset(ps, counts):
    """ps with its F, K, q2 and s_frak wrapped to count their value reads in counts."""
    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    wd = ps.walker
    fields = {name: dataclasses.replace(field, value=counted(name, field.value))
              for name, field in (("F", wd.F), ("K", wd.K), ("s_frak", wd.s_frak)) if field}
    wd = dataclasses.replace(wd, q2=dataclasses.replace(wd.q2, jet=counted("q2", wd.q2.jet)),
                             **fields)
    pair = geometry_lab.walker_killing_data(wd) if ps.killing else None
    return dataclasses.replace(ps, walker=wd, chart=geometry_lab.walker_chart(wd), killing=pair)


@pytest.mark.parametrize("block", [POINTS, 7])
@pytest.mark.parametrize("name, check", [
    (name, check) for name in ("ads4", "ads4-deformed-poly", "ads4-deformed-bessel")
    for check in CHECKS[name]
])
def test_a_block_reads_each_closed_form_field_once(monkeypatch, name, check, block):
    # the chart, profile and pair layers share one read of every field
    ps = preset(name)
    counts = dict.fromkeys(("F", "K", "q2", "s_frak"), 0)
    counted = counted_surface_preset(ps, counts)
    monkeypatch.setattr(geometry_lab, "POINT_BLOCK", block)
    for perturb in PERTURBS:
        report = run_campaign(counted, check, n_points=POINTS, seed=3, perturb=perturb)
        assert report == run_campaign(ps, check, n_points=POINTS, seed=3, perturb=perturb)
    blocks = len(PERTURBS) * -(-POINTS // block)
    read = {"F", "K", "q2"} | ({"s_frak"} if check != "einstein" and ps.walker.s_frak else set())
    assert counts == {field: blocks if field in read else 0 for field in counts}, counts


def direct_layer_digest():
    """A digest of direct layer calls on fresh ads4 data, for comparing processes."""
    import hashlib

    ads = preset("ads4")
    pts = geometry_lab._halton(5, 2) * 2.0 + np.array([-1.0, -1.0, -1.0, 0.5])
    values = [
        ricci(ads.chart, pts), christoffel(ads.chart, pts),
        *_as_arrays(killing_pair_residual(ads.chart, ads.killing, pts, np.inf)),
        *_as_arrays(walker_residuals(ads.walker, pts[..., 2:])),
        *_as_arrays(einstein_residual(ads.walker, pts[..., 2:])),
        json.dumps(run_campaign(ads, "killing", n_points=5, seed=1)).encode(),
    ]
    return hashlib.sha256(b"".join(np.asarray(v).tobytes() for v in values)).hexdigest()


def test_a_raising_block_leaves_nothing_behind_for_direct_calls():
    import os
    import subprocess

    def boom(s):
        raise RuntimeError("boom")

    # every check reads K's Hessian after its value and gradient, partway through a block
    ads = preset("ads4")
    wd = dataclasses.replace(ads.walker, K=dataclasses.replace(ads.walker.K, hess=boom))
    broken = dataclasses.replace(ads, walker=wd, chart=geometry_lab.walker_chart(wd),
                                 killing=geometry_lab.walker_killing_data(wd))
    for check in ("killing", "einstein", "walker"):
        with pytest.raises(RuntimeError, match="boom"):
            run_campaign(broken, check, n_points=POINTS, seed=3)
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run(
        [sys.executable, "-c", "import test_campaign_blocks as t; print(t.direct_layer_digest())"],
        capture_output=True, text=True, env=env, check=True).stdout.strip()
    assert direct_layer_digest() == fresh


def test_a_heterotic_block_reads_one_chart_jet():
    # the star identities take g from the order-1 jet the check already holds
    ps = preset("heterotic-ppwave")
    orders = []

    def jet(x, order):
        orders.append(order)
        return ps.chart.jet(x, order)

    chart = dataclasses.replace(ps.chart, jet=jet)
    counted = dataclasses.replace(ps, chart=chart, heterotic=dataclasses.replace(ps.heterotic, chart=chart))
    report = run_campaign(counted, "heterotic", n_points=POINTS, seed=3)
    assert orders == [1]
    assert report == run_campaign(ps, "heterotic", n_points=POINTS, seed=3)


def test_overflow_raises_and_the_error_state_is_restored():
    before = np.geterr()
    # u ~ 1/(lam y)^2 ~ 1e300, so the invariants' scale u^2 overflows
    with pytest.raises(FloatingPointError, match="overflow"):
        run_campaign(preset("ads4", {"lam": 1e-150}), "killing", n_points=3)
    assert np.geterr() == before


# ---------------------------------------------------------------------------
# stacked layer calls against row-by-row calls
# ---------------------------------------------------------------------------


def _as_arrays(result):
    if dataclasses.is_dataclass(result):
        return [np.asarray(getattr(result, f.name)) for f in dataclasses.fields(result)]
    if isinstance(result, dict):
        return [np.asarray(v) for v in result.values()]
    return [np.asarray(result)]


def layer_calls(ps):
    """Name -> callable of a (..., 4) stack of chart points, for the layers ps carries."""
    chart = ps.chart
    calls = {
        "g": chart.g,
        "dg": chart.dg,
        "d2g": chart.d2g,
        "christoffel": lambda x: christoffel(chart, x),
        "riemann": lambda x: riemann(chart, x),
        "ricci": lambda x: ricci(chart, x),
        # a polyform with parts of every degree
        "star": lambda x: hodge_star_chart(
            chart, x, np.concatenate([x, x**2, np.sin(x), x[..., ::-1]], axis=-1)),
    }
    if ps.killing is not None:
        calls["nabla_l"] = lambda x: covariant_derivative_oneform(chart, ps.killing.l, x)
        calls["killing"] = lambda x: killing_pair_residual(chart, ps.killing, x, np.inf)
    if ps.walker is not None:
        calls["walker"] = lambda x: walker_residuals(ps.walker, x[..., 2:])
        calls["einstein"] = lambda x: einstein_residual(ps.walker, x[..., 2:])
    if ps.heterotic is not None:
        calls["heterotic"] = lambda x: heterotic_susy_residuals(ps.heterotic, ps.killing, x)
        calls["bianchi"] = lambda x: modified_bianchi_residual(ps.heterotic, x)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(CHECKS)),
    perturb=st.sampled_from(PERTURBS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
)
def test_stacked_layer_calls_equal_row_by_row_calls(name, perturb, seed, n):
    ps = build(name)
    if perturb:
        ps = geometry_lab._perturbed(ps, perturb)
    lower, upper = np.asarray(ps.sample_box).T
    pts = np.random.default_rng(seed).uniform(lower, upper, size=(n, 4))
    for layer, call in layer_calls(ps).items():
        stacked = _as_arrays(call(pts))
        rows = [_as_arrays(call(x)) for x in pts]
        for i, part in enumerate(stacked):
            assert np.array_equal(part, np.stack([row[i] for row in rows])), (name, layer, i)


@pytest.mark.parametrize("layer, message", [
    ("christoffel", "outside the chart domain"),
    ("killing", "u vanishes"),
    ("walker", "nowhere zero"),
])
def test_a_residual_raises_when_any_point_of_the_block_does(layer, message):
    ads = preset("ads4")
    pts = np.array([[0.1, 0.2, 0.3, 1.0], [0.1, 0.2, 0.3, 1.5], [0.0, 0.0, 0.0, 2.0]])
    if layer == "christoffel":
        pts[1, 3] = -1.0
        call = lambda: christoffel(ads.chart, pts)  # noqa: E731
    elif layer == "killing":
        kd = dataclasses.replace(ads.killing, u=geometry_lab.OneFormField(
            lambda x: ads.killing.u.value(x) * (x[..., 3:] != 1.5)))
        call = lambda: killing_pair_residual(ads.chart, kd, pts, np.inf)  # noqa: E731
    else:
        wd = dataclasses.replace(ads.walker, K=geometry_lab.ScalarField(lambda s: s[..., 1] - 1.5))
        call = lambda: walker_residuals(wd, pts[..., 2:])  # noqa: E731
    with pytest.raises(ValueError, match=message):
        call()


def golden_entry(report):
    """The fields of a report that the golden test compares: worst points are left out."""
    residuals = {name: {"max": res["max"], "mean": res["mean"]}
                 for name, res in report["residuals"].items()}
    return dict(report, residuals=residuals)


if __name__ == "__main__":
    json.dump({key: golden_entry(campaign(case)) for key, case in golden_cases()}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
