"""Chart geometry: curvature, chart Hodge star, Killing/Walker/heterotic residuals."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin import geometry_lab
from kaspin.geometry_lab import (
    HeteroticConfig,
    KillingData,
    MetricChart,
    OneFormField,
    ScalarField,
    WalkerData,
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
    walker_chart,
    walker_killing_data,
    walker_residuals,
    _J1_SERIES_CUTOFF,
    _halton,
    _spherical_bessel_1,
)
from kaspin.ka_core import Multivector, Signature, hodge_star, wedge
from kaspin.rng import make_rng

SIG = Signature(3, 1)

# Constant core of the horospheric chart: conformal factor times this matrix.
ETA = np.array(
    [[1.0, 1.0, 0, 0], [1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
)


def halfplane_points(n, seed, y_lo=0.4, y_hi=2.5):
    rng = make_rng(seed, stream=11)
    pts = rng.uniform(-1.5, 1.5, size=(n, 4))
    pts[:, 3] = rng.uniform(y_lo, y_hi, size=n)
    return pts


def fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    rows = []
    for k in range(x.size):
        step = h * (1.0 + abs(x[k]))
        xp = x.copy()
        xm = x.copy()
        xp[k] += step
        xm[k] -= step
        rows.append((np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2 * step))
    return np.stack(rows)


def form(*one_forms):
    """Coefficient stack of the wedge of constant one-forms, built with ka_core.wedge."""
    out = Multivector.scalar(SIG, 1.0)
    for omega in one_forms:
        out = wedge(out, Multivector.covector(SIG, omega))
    return out.coeffs


def half_plane_profile(c0):
    # c0 / y^2 with closed-form derivatives, as a surface scalar field
    return ScalarField(
        value=lambda s: c0 / s[1] ** 2,
        grad=lambda s: np.array([0.0, -2.0 * c0 / s[1] ** 3]),
        hess=lambda s: np.array([[0.0, 0.0], [0.0, 6.0 * c0 / s[1] ** 4]]),
    )


# ---------------------------------------------------------------------------
# presets and chart plumbing
# ---------------------------------------------------------------------------


def test_preset_chart_values_frozen():
    mink = preset("minkowski")
    np.testing.assert_array_equal(
        mink.chart.g(np.zeros(4)), np.diag([1.0, 1.0, 1.0, -1.0])
    )

    ads = preset("ads4", {"lam": 1.0})
    np.testing.assert_allclose(
        ads.chart.g(np.array([0.0, 0.0, 0.0, 1.0])), ETA, atol=1e-15
    )

    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    want = np.array(
        [[0.3, 0.5, 0, 0], [0.5, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
    )
    np.testing.assert_allclose(
        poly.chart.g(np.array([0.0, 0.0, 0.0, 1.0])), want, atol=1e-15
    )

    # Bessel profile wired through the chart: check against explicit trig form.
    bes = preset("ads4-deformed-bessel", {"lam": 1.0, "c": 2.0, "a": (1.0, 1.0, 1.0, 0.0)})
    g = bes.chart.g(np.array([0.0, 0.0, 0.0, 1.0]))
    by2 = -np.cos(2.0) / 4.0 - np.sin(2.0) / 2.0
    assert abs(g[0, 0] - 2.0 * by2) <= 1e-12
    assert abs(g[0, 1] - 0.5) <= 1e-15


def test_preset_validation_errors():
    with pytest.raises(ValueError):
        preset("no-such-family")
    with pytest.raises(ValueError):
        preset("ads4", {"lam": 0.0})
    with pytest.raises(ValueError):
        preset("ads4", {"lam": -1.0})
    with pytest.raises(ValueError):
        preset("ads4-deformed-bessel", {"c": 0.0})
    with pytest.raises(ValueError):
        preset("ads4", {"lam": 1.0, "bogus": 3})
    with pytest.raises(ValueError):
        preset("walker-generic", {"lam": 1.0})  # needs callbacks


@pytest.mark.parametrize(
    "name, params",
    [
        ("ads4", {"lam": float("nan")}),
        ("ads4", {"lam": float("inf")}),
        ("ads4", {"lam": "nan"}),
        # lam^2 underflows to zero, or 1/lam^2 overflows, or lam^2 overflows
        ("ads4", {"lam": 1e-200}),
        ("ads4", {"lam": 1e-160}),
        ("ads4", {"lam": 1e200}),
        ("ads4-deformed-poly", {"lam": 1e-170}),
        ("ads4-deformed-bessel", {"lam": 1e-200}),
        ("ads4-deformed-bessel", {"c": float("inf")}),
        ("ads4-deformed-bessel", {"a": (1.0, float("nan"), 1.0, 0.0)}),
        ("heterotic-ppwave", {"amp": float("nan")}),
        ("heterotic-ppwave", {"omega": (0.5, float("inf"), 0.0)}),
        ("heterotic-ppwave", {"q0": [[1.0, 0.0], [0.0, float("nan")]]}),
    ],
)
def test_preset_rejects_non_finite_and_out_of_range_parameters(name, params):
    with pytest.raises(ValueError):
        preset(name, params)


def test_preset_accepts_small_and_large_finite_lambda():
    for lam in (1e-100, 1e100):
        assert preset("ads4", {"lam": lam}).lam == lam


def test_flat_chart_curvature_vanishes():
    mink = preset("minkowski")
    for x in halfplane_points(5, 1):
        assert np.max(np.abs(christoffel(mink.chart, x))) == 0.0
        assert np.max(np.abs(ricci(mink.chart, x))) == 0.0


def test_christoffel_symmetry_and_domain():
    ads = preset("ads4", {"lam": 1.0})
    for x in halfplane_points(5, 2):
        gamma = christoffel(ads.chart, x)
        scale = max(1.0, np.max(np.abs(gamma)))
        assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) <= 1e-12 * scale
    with pytest.raises(ValueError):
        christoffel(ads.chart, np.array([0.0, 0.0, 0.0, -1.0]))


def test_conformal_christoffel_oracle():
    # The horospheric chart is exp(2*w)*ETA with w = -log(lam*y), so its
    # Christoffel symbols have the conformal closed form
    # Gamma^k_ij = d^k_i w_j + d^k_j w_i - ETAinv^{kl} w_l ETA_ij.
    lam = 1.3
    ads = preset("ads4", {"lam": lam})
    eta_inv = np.linalg.inv(ETA)
    eye = np.eye(4)
    for x in halfplane_points(6, 3):
        y = x[3]
        w = np.array([0.0, 0.0, 0.0, -1.0 / y])
        expected = (
            np.einsum("ki,j->kij", eye, w)
            + np.einsum("kj,i->kij", eye, w)
            - np.einsum("kl,l,ij->kij", eta_inv, w, ETA)
        )
        np.testing.assert_allclose(christoffel(ads.chart, x), expected, atol=1e-12)


def test_metric_compatibility_and_bianchi():
    charts = [
        preset("ads4", {"lam": 0.8}).chart,
        preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)}).chart,
        preset("heterotic-ppwave", {}).chart,
    ]
    for chart in charts:
        for x in halfplane_points(4, 5):
            g = chart.g(x)
            dg = chart.dg(x)
            gamma = christoffel(chart, x)
            nabla_g = (
                dg
                - np.einsum("lki,lj->kij", gamma, g)
                - np.einsum("lkj,il->kij", gamma, g)
            )
            assert np.max(np.abs(nabla_g)) <= 1e-12 * max(1.0, np.max(np.abs(dg)))

            riem = riemann(chart, x)
            scale = max(1.0, np.max(np.abs(riem)))
            assert np.max(np.abs(riem + riem.transpose(0, 1, 3, 2))) <= 1e-12 * scale
            cyclic = riem + riem.transpose(0, 2, 3, 1) + riem.transpose(0, 3, 1, 2)
            assert np.max(np.abs(cyclic)) <= 1e-9 * scale


def test_fd_derivatives_match_analytic():
    for name, params in [
        ("ads4", {"lam": 1.0}),
        ("ads4-deformed-bessel", {"lam": 1.0, "c": 2.0, "a": (1.0, 1.0, 1.0, 0.0)}),
        ("heterotic-ppwave", {}),
    ]:
        ps = preset(name, params)
        assert ps.chart.provenance == "analytic"
        fd_chart = MetricChart.from_callable(ps.chart.g, in_domain=ps.chart.in_domain)
        assert fd_chart.provenance == "finite-difference"
        for x in halfplane_points(3, 7):
            ref_dg = ps.chart.dg(x)
            ref_d2g = ps.chart.d2g(x)
            norm1 = max(1.0, np.max(np.abs(ref_dg)))
            norm2 = max(1.0, np.max(np.abs(ref_d2g)))
            assert np.max(np.abs(fd_chart.dg(x) - ref_dg)) <= 1e-5 * norm1
            assert np.max(np.abs(fd_chart.d2g(x) - ref_d2g)) <= 1e-5 * norm2
            ric_ref = ricci(ps.chart, x)
            ric_fd = ricci(fd_chart, x)
            assert np.max(np.abs(ric_fd - ric_ref)) <= 1e-4 * max(
                1.0, np.max(np.abs(ric_ref))
            )


# ---------------------------------------------------------------------------
# chart Hodge star against the algebraic one
# ---------------------------------------------------------------------------


# scalar-, vector- and matrix-valued functions of a (..., d) stack
STENCIL_VALUES = {
    "scalar": lambda x: np.sin(x[..., 0]) * np.exp(x[..., -1]) + x[..., 1] ** 3,
    "vector": lambda x: np.stack(
        [np.cos(x).sum(axis=-1), x[..., 0] * x[..., 1], np.exp(-x[..., -1] ** 2)], axis=-1),
    "matrix": lambda x: np.sin(x[..., :2, None] * x[..., None, -2:]) / (2.0 + x[..., :1, None]),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(STENCIL_VALUES)),
    d=st.sampled_from([2, 4]),
    n=st.integers(1, 6),
    order=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fd_jet_equals_the_one_call_per_point_stencil(kind, d, n, order, seed):
    from oracles import _fd_jacobian, _fd_second

    value = STENCIL_VALUES[kind]
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, d))
    shapes = []

    def f(p):
        shapes.append(p.shape)
        return value(p)

    jet = geometry_lab._fd_jet(f, x, order)
    # one call per distinct stencil point: 1 + 2d at order 1, 1 + 2d^2 at order 2
    assert shapes == [x.shape] * (1 + 2 * d**order)
    assert len(jet) == order + 1
    assert np.array_equal(jet[0], value(x))
    assert np.array_equal(jet[1], _fd_jacobian(value, x))
    if order == 2:
        assert np.array_equal(jet[2], _fd_second(value, x))


def test_hodge_star_chart_matches_algebraic_on_flat_chart():
    # bit for bit at every degree, on the basis forms and on stacked polyforms
    mink = preset("minkowski")
    for mask in range(16):
        mono = np.eye(16)[mask]
        expected = hodge_star(Multivector(SIG, mono)).coeffs
        assert np.array_equal(hodge_star_chart(mink.chart, np.zeros(4), mono), expected)
    rng = make_rng(19, stream=3)
    x, forms = rng.standard_normal((5, 4)), rng.standard_normal((5, 16))
    expected = [hodge_star(Multivector(SIG, c)).coeffs for c in forms]
    assert np.array_equal(hodge_star_chart(mink.chart, x, forms), expected)


def test_hodge_star_chart_composition_random_two_forms():
    mink = preset("minkowski")
    rng = make_rng(19, stream=2)
    x = np.zeros(4)
    for _ in range(20):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        mv = wedge(Multivector.covector(SIG, a), Multivector.covector(SIG, b))
        assert np.array_equal(hodge_star_chart(mink.chart, x, mv.coeffs), hodge_star(mv).coeffs)


def lorentzian_metrics(rng, n):
    """n metrics A eta A^T with the singular values of A in [0.5, 2], so cond(g) <= 16."""
    q, _ = np.linalg.qr(rng.standard_normal((n, 4, 4)))
    a = q * rng.uniform(0.5, 2.0, size=(n, 1, 4))
    return a @ np.diag([1.0, 1.0, 1.0, -1.0]) @ np.swapaxes(a, -1, -2)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 4), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_chart_star_matches_the_tensor_oracle_and_squares_to_a_sign(k, n, seed):
    from oracles import _star, stack_from_tensor, tensor_from_stack

    rng = np.random.default_rng(seed)
    g = lorentzian_metrics(rng, n)
    chart = MetricChart(lambda x, order: (g,))
    x = rng.standard_normal((n, 4))
    omega = rng.standard_normal((n, 16)) * (SIG.tables().grade == k)
    starred = hodge_star_chart(chart, x, omega)
    want = stack_from_tensor(_star(g, tensor_from_stack(omega, k)), 4 - k)
    assert np.max(np.abs(starred - want)) <= 1e-12 * np.max(np.abs(want))
    # ** = (-1)^(k(4-k)) sign(det g) = -(-1)^k on a Lorentzian chart
    twice = hodge_star_chart(chart, x, starred)
    sign = (-1.0) ** (k * (4 - k)) * np.sign(np.linalg.det(g))[:, None]
    assert np.max(np.abs(twice - sign * omega)) <= 1e-12 * np.max(np.abs(omega))


# ---------------------------------------------------------------------------
# covariant derivatives of one-forms
# ---------------------------------------------------------------------------


def test_covariant_derivative_flat_constant_field_vanishes():
    mink = preset("minkowski")
    field = OneFormField(lambda x: np.array([1.0, 2.0, -3.0, 0.5]))
    for x in halfplane_points(3, 8):
        nabla = covariant_derivative_oneform(mink.chart, field, x)
        assert np.max(np.abs(nabla)) <= 1e-9


def test_covariant_derivative_of_gradient_is_symmetric():
    ads = preset("ads4", {"lam": 1.0})

    def grad_f(x):
        return np.array(
            [np.cos(x[0]), x[3], -np.sin(x[2]) * x[3], x[1] + np.cos(x[2])]
        )

    field = OneFormField(grad_f)
    for x in halfplane_points(4, 9):
        nabla = covariant_derivative_oneform(ads.chart, field, x)
        assert np.max(np.abs(nabla - nabla.T)) <= 1e-6


def test_killing_one_form_split_on_ads4():
    ads = preset("ads4", {"lam": 0.7})
    u_field = ads.killing.u
    for x in halfplane_points(4, 10):
        nabla = covariant_derivative_oneform(ads.chart, u_field, x)
        scale = max(1.0, np.max(np.abs(nabla)))
        # Killing one-form: symmetric part vanishes, antisymmetric part is
        # half the exterior derivative.
        assert np.max(np.abs(nabla + nabla.T)) <= 1e-9 * scale
        du = fd_jacobian(u_field.value, x)
        du = du - du.T
        assert np.max(np.abs((nabla - nabla.T) - du)) <= 1e-5 * scale


# ---------------------------------------------------------------------------
# Killing pair residuals
# ---------------------------------------------------------------------------


def test_killing_pair_residual_on_presets():
    for lam in (0.5, 1.0, 2.0):
        ads = preset("ads4", {"lam": lam})
        for x in halfplane_points(6, 12):
            res = killing_pair_residual(ads.chart, ads.killing, x)
            assert res.r_u <= 1e-8
            assert res.r_l <= 1e-8
            assert np.max(np.abs(res.kappa_hat)) <= 1e-8

    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    for x in halfplane_points(6, 13):
        res = killing_pair_residual(poly.chart, poly.killing, x)
        assert res.r_u <= 1e-8
        assert res.r_l <= 1e-8
        # fitted shift one-form must match the supplied analytic one
        analytic = poly.killing.kappa.value(x)
        fitted = killing_pair_residual(
            poly.chart,
            KillingData(poly.killing.u, poly.killing.l, poly.killing.lam),
            x,
        )
        assert np.max(np.abs(fitted.kappa_hat - analytic)) <= 1e-6


def test_killing_pair_flat_parallel_case():
    mink = preset("minkowski")
    for x in halfplane_points(3, 14):
        res = killing_pair_residual(mink.chart, mink.killing, x)
        assert res.r_u == 0.0
        assert res.r_l == 0.0


def test_killing_pair_invariants_and_sensitivity():
    ads = preset("ads4", {"lam": 1.0})
    x = np.array([0.2, -0.4, 0.3, 1.1])

    bad_l = OneFormField(lambda p: 1.1 * ads.killing.l.value(p))
    broken = KillingData(ads.killing.u, bad_l, ads.killing.lam)
    with pytest.raises(ValueError):
        killing_pair_residual(ads.chart, broken, x)
    res = killing_pair_residual(ads.chart, broken, x, invariant_tol=np.inf)
    assert res.r_l > 1e-3

    # parabolic-compatible but wrong partner: rotated spacelike direction
    def tilted(p):
        y = p[3]
        return np.array([0.0, 0.0, 0.6 / y, 0.8 / y])

    res = killing_pair_residual(
        ads.chart, KillingData(ads.killing.u, OneFormField(tilted), 1.0), x
    )
    assert res.r_l > 1e-3


def test_pfaffian_consistency_of_pair_derivatives():
    # Antisymmetrizing the pair equations: du = 2*lam*(u (x) l - l (x) u)
    # and dl = kappa (x) u - u (x) kappa.
    for name, params in [
        ("ads4", {"lam": 0.9}),
        ("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.3, 0.4, 0.2)}),
    ]:
        ps = preset(name, params)
        kd = ps.killing
        for x in halfplane_points(4, 15):
            u = kd.u.value(x)
            l = kd.l.value(x)
            du = fd_jacobian(kd.u.value, x)
            du = du - du.T
            target = 2.0 * kd.lam * (np.outer(u, l) - np.outer(l, u))
            assert np.max(np.abs(du - target)) <= 1e-5 * max(1.0, np.max(np.abs(du)))

            kap = kd.kappa.value(x)
            dl = fd_jacobian(kd.l.value, x)
            dl = dl - dl.T
            target_l = np.outer(kap, u) - np.outer(u, kap)
            assert np.max(np.abs(dl - target_l)) <= 1e-5 * max(
                1.0, np.max(np.abs(dl))
            )


# ---------------------------------------------------------------------------
# Walker-type surface system
# ---------------------------------------------------------------------------


def poincare_surface(lam):
    return MetricChart.closed(
        lambda s: np.eye(2) / (lam * s[1]) ** 2,
        lambda s: np.array(
            [np.zeros((2, 2)), -2.0 * np.eye(2) / (lam**2 * s[1] ** 3)]
        ),
        lambda s: np.array(
            [
                [np.zeros((2, 2)), np.zeros((2, 2))],
                [np.zeros((2, 2)), 6.0 * np.eye(2) / (lam**2 * s[1] ** 4)],
            ]
        ),
        provenance="analytic",
        in_domain=lambda s: s[1] > 0,
    )


def test_walker_residuals_half_plane_profiles():
    lam = 0.7
    for c0 in (1.0, 2.0, -0.5):
        wd = WalkerData(
            F=ScalarField(lambda s: 0.0),
            K=half_plane_profile(c0),
            q2=poincare_surface(lam),
            lam=lam,
        )
        for s in halfplane_points(5, 16)[:, 2:]:
            res = walker_residuals(wd, s)
            assert res.hessian <= 1e-8
            assert res.laplacian <= 1e-8
            assert res.s_v <= 1e-12
            assert not res.gauge_imaginary


def test_walker_residuals_on_presets_and_flag():
    ads = preset("ads4", {"lam": 1.2})
    for s in halfplane_points(5, 17)[:, 2:]:
        res = walker_residuals(ads.walker, s)
        assert max(res.hessian, res.laplacian, res.s_v) <= 1e-10

    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    for s in halfplane_points(5, 18)[:, 2:]:
        res = walker_residuals(poly.walker, s)
        assert max(res.hessian, res.laplacian, res.s_v) <= 1e-8

    # negative surface gauge square: flagged, second-order residuals intact
    wd = WalkerData(
        F=ScalarField(lambda s: -s[1]),
        K=half_plane_profile(0.5),
        q2=poincare_surface(1.0),
        lam=1.0,
    )
    res = walker_residuals(wd, np.array([0.3, 1.4]))
    assert res.gauge_imaginary
    assert res.hessian <= 1e-8 and res.laplacian <= 1e-8


def test_walker_residuals_reject_bad_profiles():
    lam = 1.0
    wd = WalkerData(
        F=ScalarField(lambda s: 0.0),
        K=ScalarField(lambda s: 1.0),
        q2=poincare_surface(lam),
        lam=lam,
    )
    res = walker_residuals(wd, np.array([0.1, 1.0]))
    assert res.laplacian > 1.0

    vanishing = WalkerData(
        F=ScalarField(lambda s: 0.0),
        K=ScalarField(lambda s: s[0]),
        q2=poincare_surface(lam),
        lam=lam,
    )
    with pytest.raises(ValueError):
        walker_residuals(vanishing, np.array([0.0, 1.0]))


def test_einstein_residual_families():
    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    for s in halfplane_points(5, 19)[:, 2:]:
        res = einstein_residual(poly.walker, s)
        assert res.f_equation <= 1e-8
        assert res.ricci_q <= 1e-8

    bes = preset("ads4-deformed-bessel", {"lam": 1.0, "c": 2.0, "a": (1.0, 1.0, 1.0, 0.0)})
    rng = make_rng(23, stream=5)
    for _ in range(20):
        s = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.1, 5.0)])
        res = einstein_residual(bes.walker, s)
        assert res.f_equation <= 1e-6
        assert res.ricci_q <= 1e-8

    # generic profile keeps the Killing system but breaks the Einstein one
    lam = 1.0
    generic = WalkerData(
        F=ScalarField(lambda s: np.exp(s[0]) * s[1] ** 3),
        K=half_plane_profile(0.5),
        q2=poincare_surface(lam),
        lam=lam,
    )
    s = np.array([0.4, 1.2])
    assert walker_residuals(generic, s).hessian <= 1e-8
    assert walker_residuals(generic, s).laplacian <= 1e-8
    assert einstein_residual(generic, s).f_equation > 1e-2


def test_walker_to_killing_transfer():
    # Pairs assembled from the surface data satisfy the chart-level system:
    # in the s_frak gauge, and without s_frak, where l is differenced and
    # kappa fitted.
    ads = preset("ads4", {"lam": 1.1})
    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    for wd in (ads.walker, poly.walker, dataclasses.replace(poly.walker, s_frak=None)):
        kd = walker_killing_data(wd)
        assert (kd.l.jac is None) == (kd.kappa is None) == (wd.s_frak is None)
        chart = walker_chart(wd)
        for x in halfplane_points(4, 20):
            res = killing_pair_residual(chart, kd, x)
            assert res.r_u <= 1e-5
            assert res.r_l <= 1e-5


EPS = np.finfo(float).eps


@st.composite
def gated_poly_coefficients(draw):
    """a of ads4-deformed-poly inside the domain where it carries pair data.

    The gauge square 1.5 a3 y (a1 + a2 x) must stay at least 0.05 * 1.5 a3 y
    on the sample box |x| <= 1.5: a3 >= 0 and a1 - 1.5 |a2| >= 0.05, here
    with a margin for the rounding of a1.
    """
    a2 = draw(st.floats(-2.0, 2.0))
    a1 = 0.051 + 1.5 * abs(a2) + draw(st.floats(0.0, 3.0))
    return a1, a2, draw(st.floats(0.0, 2.0)), draw(st.floats(-2.0, 2.0))


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(1e-2, 1e2), a=gated_poly_coefficients(), seed=st.integers(0, 2**32 - 1))
def test_walker_killing_data_closed_forms(lam, a, seed):
    lower, upper = np.asarray(preset("ads4-deformed-poly").sample_box).T
    x = np.random.default_rng(seed).uniform(lower, upper, size=(3, 4))
    v, yy = x[:, 2], x[:, 3]

    poly = preset("ads4-deformed-poly", {"lam": lam, "a": a})
    kd = walker_killing_data(poly.walker)
    # the closed-form Jacobian of l against centred differences of its value
    for p, jac in zip(x, kd.l.jac(x)):
        fd = fd_jacobian(kd.l.value, p)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd))), p
    # kappa = d(s_frak)/K, with s_frak = sqrt(1.5 a3 y (a1 + a2 x)) and K = 1/(2 y^2)
    a1, a2, a3, _ = a
    linear = a1 + a2 * v
    gauge = np.sqrt(1.5 * a3 * yy * linear)
    d_gauge = np.stack([gauge * a2 / (2.0 * linear), gauge / (2.0 * yy)], axis=-1)
    kappa = kd.kappa.value(x)
    assert np.all(kappa[:, :2] == 0.0)
    np.testing.assert_allclose(kappa[:, 2:], 2.0 * yy[:, None] ** 2 * d_gauge,
                               rtol=8 * EPS, atol=0.0)

    # ads4: u = dv/(lam y)^2 and l = dy/(lam y), kappa = 0, to a few ulps
    kd = preset("ads4", {"lam": lam}).killing
    u, l, ju, jl = kd.u.value(x), kd.l.value(x), kd.u.jac(x), kd.l.jac(x)
    assert np.all(u[:, 1:] == 0.0) and np.all(l[:, :3] == 0.0)
    assert np.all(kd.kappa.value(x) == 0.0)
    np.testing.assert_allclose(u[:, 0], 1.0 / (lam * yy) ** 2, rtol=4 * EPS, atol=0.0)
    np.testing.assert_allclose(l[:, 3], 1.0 / (lam * yy), rtol=4 * EPS, atol=0.0)
    # the Jacobian's d_y l_y = (K'^2/K - K'')/(2 lam K) cancels 4 against 6 parts
    np.testing.assert_allclose(ju[:, 3, 0], -2.0 / (lam**2 * yy**3), rtol=8 * EPS, atol=0.0)
    np.testing.assert_allclose(jl[:, 3, 3], -1.0 / (lam * yy**2), rtol=16 * EPS, atol=0.0)
    assert np.count_nonzero(ju) == ju.shape[0] and np.count_nonzero(jl) == jl.shape[0]


def test_ricci_matches_product_structure_component_formulas():
    # Independent surface-side formulas for the Ricci tensor of the chart
    # F dv^2 + 2K dv du + q, evaluated with closed-form conformal data.
    lam = 1.0
    a1, a2, a3, a4 = 1.0, 0.5, 0.2, 0.1
    poly = preset("ads4-deformed-poly", {"lam": lam, "a": (a1, a2, a3, a4)})
    for x4 in halfplane_points(5, 21):
        xx, yy = x4[2], x4[3]
        K = 0.5 / yy**2
        dK = np.array([0.0, -1.0 / yy**3])
        F = (a1 + a2 * xx) * (a3 * yy + a4 / yy**2)
        dF = np.array(
            [
                a2 * (a3 * yy + a4 / yy**2),
                (a1 + a2 * xx) * (a3 - 2.0 * a4 / yy**3),
            ]
        )
        fxx = 0.0
        fxy = a2 * (a3 - 2.0 * a4 / yy**3)
        fyy = (a1 + a2 * xx) * (6.0 * a4 / yy**4)
        kyy = 3.0 / yy**4

        def hess(hxx, hxy, hyy, grad):
            # covariant surface Hessian in the conformal half-plane chart
            return np.array(
                [
                    [hxx - grad[1] / yy, hxy + grad[0] / yy],
                    [hxy + grad[0] / yy, hyy + grad[1] / yy],
                ]
            )

        conf = 1.0 / (lam * yy) ** 2
        q = conf * np.eye(2)
        qinv = np.eye(2) / conf
        hess_k = hess(0.0, 0.0, kyy, dK)
        hess_f = hess(fxx, fxy, fyy, dF)
        lap_f = np.trace(qinv @ hess_f)
        qkf = dK @ qinv @ dF
        qkk = dK @ qinv @ dK
        ric_q = -(lam**2) * q

        ric = ricci(poly.chart, x4)
        assert abs(ric[0, 0] - (-0.5 * lap_f + qkf / (2 * K) - F * qkk / (2 * K**2))) <= 1e-9
        assert abs(ric[0, 1] - (-0.5 * np.trace(qinv @ hess_k))) <= 1e-9
        block = ric_q - hess_k / K + np.outer(dK, dK) / (2 * K**2)
        assert np.max(np.abs(ric[2:, 2:] - block)) <= 1e-9
        assert abs(ric[1, 1]) <= 1e-10
        assert np.max(np.abs(ric[1, 2:])) <= 1e-10
        assert np.max(np.abs(ric[0, 2:])) <= 1e-10


def test_einstein_property_of_chart_families():
    for lam in (0.5, 1.0, 2.0):
        ads = preset("ads4", {"lam": lam})
        for x in halfplane_points(5, 22):
            g = ads.chart.g(x)
            ric = ricci(ads.chart, x)
            rel = np.max(np.abs(ric + 3 * lam**2 * g)) / np.max(np.abs(g))
            assert rel <= 1e-6

    for name, params in [
        ("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)}),
        ("ads4-deformed-bessel", {"lam": 1.0, "c": 2.0, "a": (1.0, 1.0, 1.0, 0.0)}),
    ]:
        ps = preset(name, params)
        for x in halfplane_points(5, 23):
            g = ps.chart.g(x)
            ric = ricci(ps.chart, x)
            rel = np.max(np.abs(ric + 3 * g)) / np.max(np.abs(g))
            assert rel <= 1e-8


def test_deformed_family_at_zero_matches_base_chart():
    # With all four deformation coefficients zero the chart is the
    # horospheric one after the null-coordinate rescaling
    # u_old = (lam^2 * u_new - v) / 2.
    lam = 1.3
    ads = preset("ads4", {"lam": lam})
    poly = preset("ads4-deformed-poly", {"lam": lam, "a": (0.0, 0.0, 0.0, 0.0)})
    jac = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [-0.5, lam**2 / 2.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    for x in halfplane_points(5, 24):
        pulled_back = jac.T @ ads.chart.g(x) @ jac
        np.testing.assert_allclose(pulled_back, poly.chart.g(x), atol=1e-13)


# ---------------------------------------------------------------------------
# heterotic residuals
# ---------------------------------------------------------------------------


def test_heterotic_ppwave_all_residuals():
    ps = preset(
        "heterotic-ppwave",
        {"amp": 0.3, "q0": [[2.0, 0.3], [0.3, 1.0]], "omega": (0.7, 0.2, -0.1)},
    )
    rng = make_rng(31, stream=4)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=4)
        res = heterotic_susy_residuals(ps.heterotic, ps.killing, x)
        assert set(res) == {
            "star_identity_u",
            "star_identity_ul",
            "star_identity_l",
            "u_phi_orthogonal",
            "u_rho_orthogonal",
            "rho_phi_orthogonal",
            "gaugino_fit",
            "grad_u",
            "grad_l",
            "rho_coclosed",
            "dphi_closed",
        }
        assert max(res.values()) <= 1e-6
        assert modified_bianchi_residual(ps.heterotic, x) <= 1e-9

    # dropping the conformal factor from l breaks the derivative equation
    q0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    l0 = q0[:, 0] / np.sqrt(q0[0, 0])
    bad_l = OneFormField(lambda p: np.array([0.0, 0.0, l0[0], l0[1]]))
    bad = KillingData(ps.killing.u, bad_l, 0.0)
    x = np.array([0.9, 0.1, -0.4, 0.7])
    res = heterotic_susy_residuals(ps.heterotic, bad, x)
    assert res["grad_l"] > 1e-3


def test_heterotic_flat_trivial_configuration():
    mink = preset("minkowski")
    hc = HeteroticConfig(
        chart=mink.chart,
        varphi=OneFormField(lambda x: np.zeros(4)),
        H=None,
        FA=(),
        signs=(),
    )
    for x in halfplane_points(3, 25):
        res = heterotic_susy_residuals(hc, mink.killing, x)
        assert max(res.values()) <= 1e-9
        assert modified_bianchi_residual(hc, x) <= 1e-12


def test_heterotic_gaugino_decomposition():
    mink = preset("minkowski")
    u = np.array([1.0, 0.0, 0.0, 1.0])
    chi0 = np.array([0.0, 0.3, 0.5, 0.0])
    good = HeteroticConfig(
        chart=mink.chart,
        varphi=OneFormField(lambda x: np.zeros(4)),
        H=None,
        FA=(lambda x: form(u, chi0),),
        signs=(1,),
    )
    bad = HeteroticConfig(
        chart=mink.chart,
        varphi=OneFormField(lambda x: np.zeros(4)),
        H=None,
        FA=(lambda x: form(np.eye(4)[1], np.eye(4)[2]),),
        signs=(1,),
    )
    x = np.zeros(4)
    res_good = heterotic_susy_residuals(good, mink.killing, x)
    assert res_good["gaugino_fit"] <= 1e-12
    res_bad = heterotic_susy_residuals(bad, mink.killing, x)
    assert res_bad["gaugino_fit"] > 0.1
    # curvature of the split form wedges to zero against itself
    assert modified_bianchi_residual(good, x) <= 1e-12


def test_modified_bianchi_detects_nonclosed_flux():
    mink = preset("minkowski")

    def three_form(x):
        return x[0] * form(np.eye(4)[1], np.eye(4)[2], np.eye(4)[3])

    hc = HeteroticConfig(
        chart=mink.chart,
        varphi=OneFormField(lambda x: np.zeros(4)),
        H=three_form,
        FA=(),
        signs=(),
    )
    res = modified_bianchi_residual(hc, np.array([0.3, 0.2, -0.5, 0.9]))
    assert abs(res - 1.0) <= 1e-6


def ppwave_with_flux():
    """heterotic-ppwave with a flux H = h(v, u, y) * (dv^dx^dy + ...) and two gauge curvatures.

    No preset carries a flux or gauge field; this one runs the flux dual
    rho, its coclosedness, the star identities with rho != 0, the
    gaugino fit (one curvature splits through u, one does not) and the
    F ^ F source of the Bianchi identity, none of which vanishes.
    """
    ps = preset("heterotic-ppwave", {"amp": 0.3, "q0": [[2.0, 0.3], [0.3, 1.0]]})
    dv, du, dx, dy = np.eye(4)
    flux = form(dv, dx, dy) + 0.5 * form(du, dx, dy) - 0.3 * form(dv, du, dy)
    split = form(dv, 0.4 * dx - 0.7 * dy)
    mixed = form(dv, du) + form(dx, dy)

    def h(x):
        return (0.4 + 0.3 * np.sin(x[..., 0]) + 0.2 * x[..., 1] * x[..., 3])[..., None]

    hc = dataclasses.replace(
        ps.heterotic, H=lambda x: h(x) * flux,
        FA=(lambda x: np.cos(x[..., 2:3]) * split, lambda x: (1.0 + x[..., 3:]) * mixed),
        signs=(1.0, -0.5),
    )
    return hc, ps.killing


def test_heterotic_residuals_with_flux_match_the_tensor_oracle():
    from oracles import tensor_bianchi_residual, tensor_heterotic_residuals

    hc, kd = ppwave_with_flux()
    x = make_rng(37, stream=5).uniform(-2.0, 2.0, size=(6, 4))
    got, want = heterotic_susy_residuals(hc, kd, x), tensor_heterotic_residuals(hc, kd, x)
    got["bianchi"] = modified_bianchi_residual(hc, x)
    want["bianchi"] = tensor_bianchi_residual(hc, x)
    assert list(got) == list(want)
    for name in got:
        tol = 1e-12 * np.maximum(np.abs(want[name]), 1.0)
        if name == "rho_coclosed":
            # a centered difference of the density with step h ~ _FD_SCALE:
            # rounding-level differences of the density move it by ~ eps / h
            tol += 8.0 * np.finfo(float).eps / geometry_lab._FD_SCALE
        assert np.all(np.abs(got[name] - want[name]) <= tol), name
    # the flux and gauge terms are live: each of these reads well above rounding
    for name in ("star_identity_u", "star_identity_ul", "star_identity_l", "u_rho_orthogonal",
                 "rho_phi_orthogonal", "gaugino_fit", "grad_l", "rho_coclosed", "bianchi"):
        assert np.min(got[name]) > 1e-6, name
    # and the stacked evaluation equals the point-by-point one
    rows = [heterotic_susy_residuals(hc, kd, p) | {"bianchi": modified_bianchi_residual(hc, p)}
            for p in x]
    for name, value in got.items():
        assert np.array_equal(value, [row[name] for row in rows]), name


def test_a_flux_block_reads_the_chart_once_per_stencil_point():
    # the block's order-1 jet, then the 1 + 2d = 9 points of the flux
    # density's centred differences; sqrt|det g| at x comes from the block's jet
    hc, kd = ppwave_with_flux()
    orders = []

    def jet(x, order):
        orders.append(order)
        return hc.chart.jet(x, order)

    counted = dataclasses.replace(hc, chart=dataclasses.replace(hc.chart, jet=jet))
    x = make_rng(41, stream=5).uniform(-2.0, 2.0, size=(5, 4))
    got = heterotic_susy_residuals(counted, kd, x)
    assert orders == [1] + [0] * 9
    want = heterotic_susy_residuals(hc, kd, x)
    for name, value in want.items():
        assert np.array_equal(got[name], value), name


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def test_run_campaign_reports_and_determinism():
    ads = preset("ads4", {"lam": 1.0})
    report = run_campaign(ads, "killing", n_points=20, seed=7)
    assert set(report) == {"preset", "params", "points", "residuals", "verdict", "seed"}
    assert report["preset"] == "ads4"
    assert report["points"] == 20
    assert report["seed"] == 7
    assert report["verdict"] == "pass"
    for name in ("killing.r_u", "killing.r_l", "killing.parabolic"):
        assert report["residuals"][name]["max"] <= 1e-6
        assert 0.0 <= report["residuals"][name]["mean"] <= report["residuals"][name]["max"]

    again = run_campaign(ads, "killing", n_points=20, seed=7)
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)

    assert run_campaign(ads, "einstein", seed=3)["verdict"] == "pass"
    assert run_campaign(ads, "walker", seed=3)["verdict"] == "pass"


def test_run_campaign_perturbation_sensitivity():
    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    clean = run_campaign(poly, "einstein", seed=5)
    assert clean["verdict"] == "pass"
    bumped = run_campaign(poly, "einstein", seed=5, perturb=0.01)
    assert bumped["verdict"] == "fail"
    assert bumped["residuals"]["einstein.f_equation"]["max"] > 1e-3

    mink = preset("minkowski")
    assert run_campaign(mink, "killing", seed=5)["verdict"] == "pass"
    assert run_campaign(mink, "killing", seed=5, perturb=0.01)["verdict"] == "fail"


def test_run_campaign_rejects_missing_data():
    bes = preset("ads4-deformed-bessel", {"lam": 1.0, "c": 2.0, "a": (1.0, 1.0, 1.0, 0.0)})
    with pytest.raises(ValueError):
        run_campaign(bes, "killing")
    mink = preset("minkowski")
    with pytest.raises(ValueError):
        run_campaign(mink, "walker")
    with pytest.raises(ValueError):
        run_campaign(mink, "heterotic")
    with pytest.raises(ValueError):
        run_campaign(mink, "unknown-check")


def test_run_campaign_heterotic_preset():
    ps = preset("heterotic-ppwave", {})
    report = run_campaign(ps, "heterotic", n_points=10, seed=2)
    assert report["verdict"] == "pass"
    assert report["residuals"]["heterotic.bianchi"]["max"] <= 1e-9
    assert report["residuals"]["heterotic.grad_l"]["max"] <= 1e-6


@pytest.mark.parametrize("perturb", [float("nan"), float("inf"), -float("inf")])
def test_run_campaign_rejects_non_finite_perturb(perturb):
    with pytest.raises(ValueError):
        run_campaign(preset("ads4"), "einstein", n_points=2, perturb=perturb)


def test_halton_matches_scipy_bit_for_bit():
    from scipy.stats import qmc

    for seed in [*range(100), 2**31 - 1]:
        for n in (1, 5, 20, 100, 257):
            want = qmc.Halton(d=4, scramble=True, seed=seed).random(n)
            assert np.array_equal(_halton(n, seed), want), (seed, n)


def test_halton_blocks_match_scipy_and_each_other(monkeypatch):
    from scipy.stats import qmc

    from kaspin import geometry_lab

    n = 2 * geometry_lab.HALTON_BLOCK + 5
    for seed in (0, 7):
        want = qmc.Halton(d=4, scramble=True, seed=seed).random(n)
        assert np.array_equal(_halton(n, seed), want), seed
    monkeypatch.setattr(geometry_lab, "HALTON_BLOCK", 7)
    assert np.array_equal(_halton(50, 3), qmc.Halton(d=4, scramble=True, seed=3).random(50))


def test_halton_memory_is_flat_in_the_point_count():
    import tracemalloc

    # the (100000, 4) output alone is 3.2 MB; whole-n digit arrays were 125 MB
    tracemalloc.start()
    try:
        _halton(100_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_halton_digit_table_is_bounded_and_grows_to_the_largest_n(monkeypatch):
    from kaspin import geometry_lab

    monkeypatch.setattr(geometry_lab, "_HALTON_DIGITS", {})
    tables = geometry_lab._HALTON_DIGITS
    first = _halton(5, 0)
    # a 5-point campaign expands only its own 5 points
    assert sorted(tables) == [2, 3, 5, 7] and {len(t) for t in tables.values()} == {5}
    _halton(20, 1)
    _halton(3, 2)
    assert {len(t) for t in tables.values()} == {20}
    _halton(100_000, 1)
    assert {len(t) for t in tables.values()} == {geometry_lab.HALTON_BLOCK}
    assert not any(t.flags.writeable for t in tables.values())
    assert np.array_equal(_halton(5, 0), first)


def test_spherical_bessel_closed_form_matches_scipy():
    from scipy import special

    z = np.concatenate([np.geomspace(1e-6, 50.0, 2001), np.linspace(0.05, 50.0, 2001)])
    assert np.count_nonzero(z < _J1_SERIES_CUTOFF) > 100  # the series branch is covered
    got = np.array([_spherical_bessel_1(float(v)) for v in z])
    want = np.stack([
        special.spherical_jn(1, z),
        special.spherical_jn(1, z, derivative=True),
        special.spherical_yn(1, z),
        special.spherical_yn(1, z, derivative=True),
    ], axis=1)
    rel = np.abs(got - want) / np.abs(want)
    assert np.max(rel) <= 1e-13, np.max(rel, axis=0)
