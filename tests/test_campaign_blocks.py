"""Campaigns scored in stacked blocks: golden reports, block sizes, callbacks.

``tests/data/campaign_reports.json`` holds the reports of the per-point
campaign loop (every preset with each check it carries, clean and
perturbed, seeds 3 and 11, 20 points).  Regenerate it with

    PYTHONPATH=<checkout>/src python tests/test_campaign_blocks.py > tests/data/campaign_reports.json

against the checkout whose reports are the reference.
"""

import contextlib
import dataclasses
import functools
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin import geometry_lab
from kaspin.geometry_lab import (
    preset,
    require_check,
    run_campaign,
    score,
    walker_killing_data,
)
from oracles import on_chart

FIXTURE = Path(__file__).parent / "data" / "campaign_reports.json"
README = Path(__file__).resolve().parents[1] / "README.md"

CHECKS = {
    "minkowski": ("killing", "einstein"),
    "ads4": ("killing", "einstein", "walker"),
    "ads4-deformed-poly": ("killing", "einstein", "walker"),
    "ads4-deformed-bessel": ("killing", "einstein", "walker"),
    "heterotic-ppwave": ("killing", "einstein", "heterotic", "bianchi"),
    "walker-generic": ("killing", "einstein", "walker"),
}
SEEDS = (3, 11)
PERTURBS = (0.0, 0.1)
POINTS = 20


def ads4_callbacks(calls=None, opaque=False):
    """Exact AdS4 at lam = 1 as one-point callbacks: F = K = 1/y^2, q2 = delta/y^2.

    When calls is a list, every callback appends (its name, the shape of its argument).
    opaque callbacks read y through float(), which a jet point refuses, so a campaign
    on them raises ValueError.
    """

    def logged(name, fn):
        def callback(s):
            if calls is not None:
                calls.append((name, np.shape(s)))
            return fn(s)
        return callback

    def y(s):
        return float(s[1]) if opaque else s[1]

    def profile(s):
        return 1.0 / y(s) ** 2

    return {
        "lam": 1.0,
        "F": logged("F", profile),
        "K": logged("K", profile),
        "q2": logged("q2", lambda s: np.eye(2) / y(s) ** 2),
    }


def build(name, calls=None, opaque=False):
    return preset(name, ads4_callbacks(calls, opaque) if name == "walker-generic" else None)


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


@pytest.mark.parametrize("check, orders", [
    # the einstein block reads each field once, at order 2, for the chart and the profiles
    pytest.param("einstein", {"F": 2, "K": 2, "q2": 2}, id="einstein"),
    # the walker check reads K to order 2 and q2 to order 1 alone
    pytest.param("walker", {"K": 2, "q2": 1}, id="walker"),
])
def test_walker_generic_callbacks_see_one_point(check, orders):
    # every callback the check reads is called once per field and block, on a jet point of
    # shape (2,)
    calls = []
    run_campaign(build("walker-generic", calls), check, n_points=POINTS, seed=3)
    assert calls and all(shape == (2,) for _, shape in calls)
    for field in ("F", "K", "q2"):
        assert sum(name == field for name, _ in calls) == (field in orders), field


@pytest.mark.parametrize("block", [POINTS, 7])
@pytest.mark.parametrize("check", CHECKS["walker-generic"])
def test_walker_generic_takes_fields_as_they_are(monkeypatch, check, block):
    # ads4's own Fields given to walker-generic score as ads4 does; each jet is read once per
    # field and block, on the block's whole (n, 2) stack of surface points
    ads = preset("ads4")
    calls = []

    def logged(name):
        field = getattr(ads.walker, name)

        def jet(s, order):
            calls.append((name, np.shape(s)))
            return field.jet(s, order)

        return dataclasses.replace(field, jet=jet)

    generic = preset("walker-generic",
                     {"lam": 1.0, "F": logged("F"), "K": logged("K"), "q2": logged("q2")})
    monkeypatch.setattr(geometry_lab, "POINT_BLOCK", block)
    blocks = [(min(block, POINTS - start), 2) for start in range(0, POINTS, block)]
    read = ("K", "q2") if check == "walker" else ("F", "K", "q2")
    for perturb in PERTURBS:
        calls.clear()
        got = run_campaign(generic, check, n_points=POINTS, seed=3, perturb=perturb)
        want = run_campaign(ads, check, n_points=POINTS, seed=3, perturb=perturb)
        assert (got.pop("preset"), want.pop("preset")) == ("walker-generic", "ads4")
        assert got == want, (check, perturb)
        assert sorted(calls) == sorted((name, shape) for name in read for shape in blocks)


def box_points(ps, n):
    """n points of ps's sample box, as a campaign with seed 0 draws them."""
    lower, upper = np.asarray(ps.sample_box).T
    return geometry_lab._halton(n, 0) * (upper - lower) + lower


@pytest.mark.parametrize("check, points", [
    pytest.param("killing", None, id="killing"),
    pytest.param("einstein", None, id="einstein"),
    # score raises as a campaign does, at one point and on a stack
    *(pytest.param(check, n, id=f"{check}-score-{n}")
      for check in ("killing", "einstein") for n in (1, POINTS)),
])
def test_a_nan_residual_raises_naming_its_key(check, points):
    # nan + 1/y^2 sets no floating-point flag, so only the residual test can see the nan
    params = dict(ads4_callbacks(), F=lambda s: float("nan") + 1.0 / s[1] ** 2)
    ps = preset("walker-generic", params)
    before = np.geterr()
    with pytest.raises(FloatingPointError, match=rf"residual {check}\.\w+ is not finite: nan"):
        if points is None:
            run_campaign(ps, check, n_points=POINTS)
        else:
            score(ps, check, box_points(ps, points))
    assert np.geterr() == before


@pytest.mark.parametrize("check", CHECKS["walker-generic"])
def test_exact_callbacks_pass_near_eps_and_their_controls_fail(check):
    # exact jets: the one-step differences failed einstein and walker here at about 1e-6
    for seed in SEEDS:
        report = run_campaign(build("walker-generic"), check, n_points=POINTS, seed=seed)
        assert report["verdict"] == "pass", report
        assert max(res["max"] for res in report["residuals"].values()) <= 1e-12, report
        perturbed = run_campaign(build("walker-generic"), check, n_points=POINTS, seed=seed,
                                 perturb=0.1)
        assert perturbed["verdict"] == "fail", perturbed


def test_an_opaque_callback_gets_the_difference_jets_bit_for_bit():
    # an opaque callback has no exact jet and nothing stands in for one: its campaign raises,
    # naming float(), instead of scoring a verdict on approximate derivatives.  Its numpy twin
    # passes and its controls fail (test_exact_callbacks_pass_near_eps_and_their_controls_fail)
    for check in ("einstein", "walker"):
        for perturb in PERTURBS:
            with pytest.raises(ValueError, match=r"no exact jet: float\(\) argument"):
                run_campaign(build("walker-generic", opaque=True), check, n_points=POINTS,
                             seed=3, perturb=perturb)


def test_walker_generic_accepts_and_ignores_a_gauge_root():
    # no check reads s_frak any more; callers that still pass it get the same reports
    calls = []
    params = dict(ads4_callbacks(), s_frak=lambda s: calls.append(s) or 0.0)
    with_root, without = preset("walker-generic", params), build("walker-generic")
    for check in ("einstein", "walker"):
        assert run_campaign(with_root, check, n_points=5) == run_campaign(without, check, n_points=5)
    assert calls == []


def counted(field, counts, name):
    """field with its jet wrapped to count its reads in counts[name]."""
    def jet(*args):
        counts[name] += 1
        return field.jet(*args)

    return dataclasses.replace(field, jet=jet)


def counted_surface_preset(ps, counts):
    """ps with its F, K and q2 wrapped to count their jet reads in counts; the chart follows."""
    fields = {name: counted(getattr(ps.walker, name), counts, name) for name in ("F", "K", "q2")}
    return dataclasses.replace(ps, walker=dataclasses.replace(ps.walker, **fields))


def test_walker_killing_data_reads_k_once_per_field_jet():
    counts = dict.fromkeys(("F", "K", "q2"), 0)
    wd = counted_surface_preset(preset("ads4"), counts).walker
    kd = walker_killing_data(wd)
    x = geometry_lab._halton(5, 1) * 2.0 + np.array([-1.0, -1.0, -1.0, 0.5])
    (u, du), (l, dl) = kd.u.jet(x, 1), kd.l.jet(x, 1)
    assert counts == {"F": 0, "K": 2, "q2": 0}
    # a value read is the value part of the same jet
    for got, want in zip((u, l), (kd.u.value(x), kd.l.value(x))):
        assert same_bits(got, want)


@pytest.mark.parametrize("block", [POINTS, 7])
@pytest.mark.parametrize("name, check", [
    (name, check) for name in ("ads4", "ads4-deformed-poly", "ads4-deformed-bessel")
    for check in CHECKS[name]
])
def test_a_block_reads_each_closed_form_field_once(monkeypatch, name, check, block):
    # the chart, profile and pair layers share one read of every field
    ps = preset(name)
    counts = dict.fromkeys(("F", "K", "q2"), 0)
    counted = counted_surface_preset(ps, counts)
    monkeypatch.setattr(geometry_lab, "POINT_BLOCK", block)
    for perturb in PERTURBS:
        report = run_campaign(counted, check, n_points=POINTS, seed=3, perturb=perturb)
        assert report == run_campaign(ps, check, n_points=POINTS, seed=3, perturb=perturb)
    blocks = len(PERTURBS) * -(-POINTS // block)
    # the walker check reads no F; every other check reads each field once per block
    read = {"K", "q2"} if check == "walker" else {"F", "K", "q2"}
    assert counts == {field: blocks if field in read else 0 for field in counts}, counts


@pytest.mark.parametrize("block", [POINTS, 7])
@pytest.mark.parametrize("check", CHECKS["heterotic-ppwave"])
def test_a_ppwave_block_reads_each_field_once(monkeypatch, check, block):
    # the chart, the pair and the dilaton: each check reads what it needs once per block
    ps = preset("heterotic-ppwave")
    counts = dict.fromkeys(("chart", "u", "l", "varphi"), 0)
    pair = dataclasses.replace(ps.killing, u=counted(ps.killing.u, counts, "u"),
                               l=counted(ps.killing.l, counts, "l"))
    background = dataclasses.replace(ps.heterotic,
                                     varphi=counted(ps.heterotic.varphi, counts, "varphi"))
    read_counted = dataclasses.replace(ps, chart=counted(ps.chart, counts, "chart"), killing=pair,
                                       heterotic=background)
    monkeypatch.setattr(geometry_lab, "POINT_BLOCK", block)
    for perturb in PERTURBS:
        report = run_campaign(read_counted, check, n_points=POINTS, seed=3, perturb=perturb)
        assert report == run_campaign(ps, check, n_points=POINTS, seed=3, perturb=perturb)
    blocks = len(PERTURBS) * -(-POINTS // block)
    read = {"killing": {"chart", "u", "l"}, "einstein": {"chart"},
            "heterotic": {"chart", "u", "l", "varphi"}, "bianchi": set()}[check]
    assert counts == {field: blocks if field in read else 0 for field in counts}, counts


def direct_layer_digest():
    """A digest of direct layer calls on fresh ads4 data, for comparing processes."""
    import hashlib

    ads = preset("ads4")
    pts = geometry_lab._halton(5, 2) * 2.0 + np.array([-1.0, -1.0, -1.0, 0.5])
    values = [
        on_chart(geometry_lab._ricci, ads.chart, pts, 2),
        on_chart(geometry_lab._christoffel, ads.chart, pts, 1),
        *(value for check in ("killing", "walker", "einstein")
          for value in score(ads, check, pts).values()),
        json.dumps(run_campaign(ads, "killing", n_points=5, seed=1)).encode(),
    ]
    return hashlib.sha256(b"".join(np.asarray(v).tobytes() for v in values)).hexdigest()


def test_a_raising_block_leaves_nothing_behind_for_direct_calls():
    import os
    import subprocess

    def boom(s):
        raise RuntimeError("boom")

    # every check reads K's jet to order 2, which raises after its value part is computed,
    # partway through a block
    ads = preset("ads4")
    K = ads.walker.K

    def jet(s, order):
        K.jet(s, 0)
        return boom(s)

    broken = dataclasses.replace(ads, walker=dataclasses.replace(
        ads.walker, K=dataclasses.replace(K, jet=jet)))
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
    # the coframe, the background forms read into it and rho_coclosed all take g from the
    # block's one order-1 jet
    ps = preset("heterotic-ppwave")
    orders = []

    def jet(x, order):
        orders.append(order)
        return ps.chart.jet(x, order)

    counted = dataclasses.replace(ps, chart=dataclasses.replace(ps.chart, jet=jet))
    report = run_campaign(counted, "heterotic", n_points=POINTS, seed=3)
    assert orders == [1]
    assert report == run_campaign(ps, "heterotic", n_points=POINTS, seed=3)


def test_overflow_raises_and_the_error_state_is_restored():
    before = np.geterr()
    # K ~ 1/(lam y)^2 ~ 1e300, so the walker check's dK (x) dK overflows
    with pytest.raises(FloatingPointError, match="overflow"):
        run_campaign(preset("ads4", {"lam": 1e-150}), "walker", n_points=3)
    assert np.geterr() == before


@pytest.mark.parametrize("points", [1, POINTS])
def test_score_raises_on_overflow_and_restores_the_error_state(points):
    # score itself raises, where it once returned inf with only a RuntimeWarning
    ps = preset("ads4", {"lam": 1e-150})
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            score(ps, "walker", box_points(ps, points))
    assert np.geterr() == before


@pytest.mark.parametrize("bad", [
    pytest.param(lambda x: x[..., :3], id="three-coordinates"),
    pytest.param(lambda x: np.concatenate([x, x[..., :1]], axis=-1), id="five-coordinates"),
    pytest.param(lambda x: x[..., 0], id="scalars"),
    pytest.param(lambda x: np.where(np.arange(4) == 0, np.nan, x), id="nan"),
    pytest.param(lambda x: np.where(np.arange(4) == 3, np.inf, x), id="inf"),
    pytest.param(lambda x: np.where(np.arange(4) == 1, -np.inf, x), id="minus-inf"),
    # numpy's reshape failed on an empty stack for every check but bianchi, which scored it
    pytest.param(lambda x: np.reshape(x, (-1, 4))[:0], id="empty"),
    pytest.param(lambda x: np.reshape(x, (-1, 1, 4))[:, :0], id="empty-inner-axis"),
])
@pytest.mark.parametrize("points", [1, POINTS])
def test_score_rejects_what_is_not_a_finite_stack_of_chart_points(bad, points):
    # such points once scored as passes (0.0), or raised IndexError, depending on the check
    for name, checks in CHECKS.items():
        ps = build(name)
        x = bad(box_points(ps, points)[0] if points == 1 else box_points(ps, points))
        for check in checks:
            with pytest.raises(ValueError, match="^chart points must be"):
                score(ps, check, x)


def test_score_is_the_one_way_into_the_evaluators(monkeypatch):
    # a campaign scores each block through score: 20 points in blocks of 7 make 3 calls
    calls = []

    def counted(ps, check, x):
        calls.append(np.shape(x))
        return score(ps, check, x)

    monkeypatch.setattr(geometry_lab, "POINT_BLOCK", 7)
    monkeypatch.setattr(geometry_lab, "score", counted)
    for name, checks in CHECKS.items():
        for check in checks:
            calls.clear()
            run_campaign(build(name), check, n_points=POINTS)
            assert calls == [(7, 4), (7, 4), (6, 4)], (name, check)


# ---------------------------------------------------------------------------
# stacked layer calls against row-by-row calls
# ---------------------------------------------------------------------------


def _as_arrays(result):
    if isinstance(result, dict):
        return [np.asarray(v) for v in result.values()]
    return [np.asarray(result)]


def polyform_in_coframe(chart, x):
    """A polyform with parts of every degree over dx^i, read into the orthonormal coframe at x."""
    c = np.concatenate([x, x**2, np.sin(x), x[..., ::-1]], axis=-1)
    _, inverse = geometry_lab._coframe(chart.value(x))
    return (c[..., None, :] @ geometry_lab._exterior(inverse))[..., 0, :]


def layer_calls(ps):
    """Name -> callable of a (..., 4) stack of chart points, for each layer and check ps carries."""
    chart = ps.chart
    calls = {
        "g": chart.value,
        "dg": lambda x: chart.jet(x, 1)[1],
        "d2g": lambda x: chart.jet(x, 2)[2],
        "christoffel": lambda x: on_chart(geometry_lab._christoffel, chart, x, 1),
        "ricci": lambda x: on_chart(geometry_lab._ricci, chart, x, 2),
        "coframe": functools.partial(polyform_in_coframe, chart),
    }
    pair = ps.killing if ps.walker is None else walker_killing_data(ps.walker)
    if pair is not None:
        calls["nabla_l"] = lambda x: geometry_lab._nabla(
            on_chart(geometry_lab._christoffel, chart, x, 1), pair.l.jet(x, 1))
    for check in geometry_lab._CHECKS:
        with contextlib.suppress(ValueError):
            require_check(ps, check)
            calls[check] = functools.partial(score, ps, check)
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


@pytest.mark.parametrize("name, row", [
    # y = 1.5611736869448234, where (lam * y) ** 2 on a lone y once took libm's pow
    ("ads4", 1958),
    ("ads4-deformed-poly", 1958),
    ("ads4-deformed-bessel", 1958),
    ("heterotic-ppwave", 1141),  # rate ** 2, in the second derivatives
])
def test_a_lone_point_reads_the_bits_of_its_row_in_a_stack(name, row):
    ps = build(name)
    lower, upper = np.asarray(ps.sample_box).T
    pts = np.random.default_rng(0).uniform(lower, upper, size=(2000, 4))
    stacked = ps.chart.jet(pts, 2)
    for k, part in enumerate(ps.chart.jet(pts[row], 2)):
        assert np.array_equal(part, stacked[k][row]), k


@pytest.mark.parametrize("layer, message", [
    ("christoffel", "outside the chart domain"),
    ("killing", "no Lorentzian coframe"),
    ("walker", "nowhere zero"),
])
def test_a_residual_raises_when_any_point_of_the_block_does(layer, message):
    ads = preset("ads4")
    pts = np.array([[0.1, 0.2, 0.3, 1.0], [0.1, 0.2, 0.3, 1.5], [0.0, 0.0, 0.0, 2.0]])
    if layer == "christoffel":
        pts[1, 3] = -1.0
        call = lambda: on_chart(geometry_lab._christoffel, ads.chart, pts, 1)  # noqa: E731
    elif layer == "killing":
        # the metric flips its sign at y = 1.5: no orthonormal (3, 1) coframe exists there
        def jet(x, order):
            g, *rest = ads.chart.jet(x, order)
            return (g * np.where(x[..., 3] == 1.5, -1.0, 1.0)[..., None, None], *rest)

        # the pair is given and the surface data are gone, so the block reads this chart's jet
        flipped = dataclasses.replace(ads, chart=dataclasses.replace(ads.chart, jet=jet),
                                      killing=walker_killing_data(ads.walker), walker=None)
        call = lambda: score(flipped, "killing", pts)  # noqa: E731
    else:
        wd = dataclasses.replace(ads.walker, K=geometry_lab.Field.from_callable(lambda s: s[1] - 1.5))
        call = lambda: score(dataclasses.replace(ads, walker=wd), "walker", pts)  # noqa: E731
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# the fixed per-call work: lifting, embedding, the Halton draw, the evaluator contract
# ---------------------------------------------------------------------------


def same_bits(got, want):
    """Whether got and want are equal arrays, bit for bit."""
    return (type(got) is type(want) is np.ndarray and got.dtype == want.dtype
            and got.shape == want.shape and got.tobytes() == want.tobytes())


# component shapes of a one-point callback result: a number, a vector, a matrix, a 3-tensor
SHAPES = st.sampled_from([(), (2,), (4,), (2, 2), (4, 4), (2, 2, 2)])


def one_point_callback(shape, as_lists, seed):
    """A callback of one point whose result is one array of the given shape, or the same as
    nested lists; a number as a float."""
    weight = np.random.default_rng(seed).standard_normal(shape)

    def fn(p):
        value = np.asarray(weight * np.sin(p).sum())
        return value.tolist() if as_lists or value.ndim == 0 else value

    return fn


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 4]), lead=st.sampled_from([(), (1,)]), n=st.integers(1, 7),
       shape=SHAPES, as_lists=st.booleans(), seed=st.integers(0, 2**16))
def test_one_array_lifting_is_bit_identical_to_stacking_rows(d, lead, n, shape, as_lists, seed):
    from oracles import pointwise

    fn = one_point_callback(shape, as_lists, seed)
    x = np.random.default_rng(seed).uniform(0.5, 2.0, size=lead + (n, d))
    assert same_bits(geometry_lab._pointwise(fn)(x), pointwise(fn)(x))
    assert same_bits(geometry_lab._pointwise(fn)(x[0]), pointwise(fn)(x[0]))


def test_a_ragged_callback_result_raises():
    from oracles import pointwise

    # the second point returns one component fewer than the first
    def ragged(p):
        return np.ones(3 if p[0] < 0.5 else 2)

    x = np.array([[0.0, 1.0], [1.0, 1.0]])
    for lift in (geometry_lab._pointwise, pointwise):
        with pytest.raises(ValueError):
            lift(ragged)(x)


# the kinds of index _embed's callers pass, on surface (d = 2) and chart (d = 4) tensors
EMBED_INDICES = {
    2: [1, (0, 1), (1, 1), np.s_[1:], np.s_[:], np.s_[0, 1:]],
    4: [0, (1, 0), np.s_[2:], np.s_[2:, 0], np.s_[2:, 2:], np.s_[0, 2:, 2:], slice(None)],
}


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 4]), rank=st.integers(1, 3), n=st.integers(1, 7),
       picks=st.lists(st.integers(0, 6), min_size=1, max_size=4), scalar=st.booleans(),
       seed=st.integers(0, 2**16))
def test_embedding_by_plain_tuples_is_bit_identical_to_index_exp(d, rank, n, picks, scalar, seed):
    from oracles import embed

    rng = np.random.default_rng(seed)
    shape = (d,) * rank
    indices = [i for i in EMBED_INDICES[d] if len(i if isinstance(i, tuple) else (i,)) <= rank]
    entries = []
    for pick in picks:
        index = indices[pick % len(indices)]
        # the values of one point fill what the index leaves of a tensor of the given shape
        rest = np.zeros(shape)[index].shape
        value = rng.standard_normal() if scalar else rng.standard_normal((n,) + rest)
        entries.append((index, value))
    x = rng.standard_normal((n, d))
    assert same_bits(geometry_lab._embed(x, shape, *entries), embed(x, shape, *entries))


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([1, 5, 20, 257, 2 * geometry_lab.POINT_BLOCK + 5]),
       seed=st.integers(0, 2**32 - 1))
def test_one_gather_halton_is_bit_identical_to_the_per_base_draw(n, seed):
    from oracles import halton

    assert same_bits(geometry_lab._halton(n, seed), halton(n, seed))


@pytest.mark.parametrize("points", [1, 7])
@pytest.mark.parametrize("perturb", PERTURBS)
def test_every_evaluator_returns_one_value_per_point(points, perturb):
    # run_campaign concatenates what the evaluators return as they are
    scored = set()
    for name in CHECKS:
        ps = build(name)
        if perturb:
            ps = geometry_lab._perturbed(ps, perturb)
        lower, upper = np.asarray(ps.sample_box).T
        x = np.random.default_rng(points).uniform(lower, upper, size=(points, 4))
        for check, (evaluate, _) in geometry_lab._CHECKS.items():
            with contextlib.suppress(ValueError):
                require_check(ps, check)
                for key, value in evaluate(ps, x).items():
                    assert type(value) is np.ndarray and value.shape == (points,), (name, key)
                scored.add(check)
    assert scored == set(geometry_lab._CHECKS)


def test_the_readme_names_every_report_key_and_no_other():
    # a key the checks no longer report once stayed in the README
    reported = set()
    for name in CHECKS:
        ps = build(name)
        x = np.asarray(ps.sample_box).mean(axis=1)
        for check in geometry_lab._CHECKS:
            try:
                require_check(ps, check)
            except ValueError:
                continue
            reported |= set(score(ps, check, x))
    assert {key.split(".")[0] for key in reported} == set(geometry_lab._CHECKS)
    checks = "|".join(geometry_lab._CHECKS)
    assert set(re.findall(rf"`((?:{checks})\.\w+)`", README.read_text())) == reported


def test_a_campaign_calls_no_stack_broadcast_or_index_exp(monkeypatch):
    from oracles import embed, pointwise

    counts = dict.fromkeys(("stack", "broadcast_to", "index_exp"), 0)

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    class CountedIndexExp:
        def __getitem__(self, item, real=np.index_exp):
            counts["index_exp"] += 1
            return real[item]

    monkeypatch.setattr(np, "stack", counted("stack", np.stack))
    monkeypatch.setattr(np, "broadcast_to", counted("broadcast_to", np.broadcast_to))
    monkeypatch.setattr(np, "index_exp", CountedIndexExp())
    # the finite-difference chart lifts every callback; ads4 and minkowski embed and broadcast
    for name, check in [("walker-generic", "einstein"), ("walker-generic", "walker"),
                        ("ads4", "killing"), ("ads4", "einstein"), ("minkowski", "einstein")]:
        for perturb in PERTURBS:
            run_campaign(build(name), check, n_points=POINTS, seed=3, perturb=perturb)
    assert counts == {"stack": 0, "broadcast_to": 0, "index_exp": 0}
    # the former per-row lifting and index_exp embedding make the calls these counters see
    pointwise(lambda p: p)(np.ones((2, 2)))
    embed(np.ones((2, 2)), (2,), (0, 1.0))
    assert counts["stack"] == 1 and counts["index_exp"] == 2


def golden_entry(report):
    """The fields of a report that the golden test compares: worst points are left out."""
    residuals = {name: {"max": res["max"], "mean": res["mean"]}
                 for name, res in report["residuals"].items()}
    return dict(report, residuals=residuals)


if __name__ == "__main__":
    json.dump({key: golden_entry(campaign(case)) for key, case in golden_cases()}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
