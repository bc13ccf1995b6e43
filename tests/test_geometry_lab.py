"""Chart geometry: curvature, the coframe map of forms, Killing/Walker/heterotic residuals."""

import dataclasses
import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin import _jets, geometry_lab
from kaspin.geometry_lab import (
    Field,
    HeteroticConfig,
    KillingData,
    Preset,
    WalkerData,
    preset,
    run_campaign,
    score,
    walker_killing_data,
    _J1_SERIES_CUTOFF,
    _halton,
    _spherical_bessel_1,
)
from kaspin.ka_core import Multivector, Signature, geometric_product, hodge_star, wedge

from helpers import closed_field, make_rng
from oracles import _fd_jacobian, _fd_second, on_chart, preset_field_values

SIG = Signature(3, 1)
HETEROTIC_RESIDUALS = ("square", "gravitino", "dilatino", "gaugino", "rho_coclosed", "dphi_closed",
                       "bianchi")
# the five algebraic tensor relations that (phi - H) <> alpha = 0 replaces
ALGEBRAIC = ("star_identity_u", "star_identity_ul", "star_identity_l", "u_phi_orthogonal",
             "u_rho_orthogonal")

# Constant core of the horospheric chart: conformal factor times this matrix.
ETA = np.array(
    [[1.0, 1.0, 0, 0], [1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
)


def scored(ps, check, x):
    """score's residuals of check at x, keyed by their names within the check."""
    return {key.split(".", 1)[1]: value for key, value in score(ps, check, x).items()}


def pair_of(ps):
    """The pair the killing check scores on ps: the given one, else the one its K derives."""
    return ps.killing if ps.killing is not None else walker_killing_data(ps.walker)


def on_surface(wd):
    """ads4 with the surface data wd in place of its own, and so with wd's chart and lam."""
    return dataclasses.replace(preset("ads4"), walker=wd)


def christoffel(chart, x):
    """geometry_lab's Christoffel symbols Gamma^k_ij at x, [..., k, i, j]."""
    return on_chart(geometry_lab._christoffel, chart, x, 1)


def ricci(chart, x):
    """geometry_lab's Ricci tensor at x."""
    return on_chart(geometry_lab._ricci, chart, x, 2)


def covariant_derivative(chart, field, x):
    """geometry_lab's nabla omega, [..., i, j] = d_i omega_j - Gamma^k_ij omega_k, of a field."""
    return geometry_lab._nabla(christoffel(chart, x), field.jet(x, 1))


def chart_point(s):
    """The chart point (0, 0, s) over the surface point s."""
    return np.concatenate([[0.0, 0.0], s])


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


def form_field(stack, scalar=lambda x: 1.0, gradient=lambda x: 0.0):
    """The form field scalar(x) * stack, a Field whose partials d_i are gradient(x)[i] * stack."""
    return closed_field(
        lambda x: np.multiply.outer(np.broadcast_to(scalar(x), np.shape(x)[:-1]), stack),
        lambda x: np.multiply.outer(np.broadcast_to(gradient(x), np.shape(x)), stack))


def zero_dilaton():
    return closed_field(lambda x: np.zeros(np.shape(x)), lambda x: np.zeros(np.shape(x) + (4,)))


def in_frame(c, m):
    """The stacks c over dx^i read over e^a, where dx^i = sum_a m[i, a] e^a."""
    return (c[..., None, :] @ geometry_lab._exterior(m))[..., 0, :]


def half_plane_profile(c0):
    # c0 / y^2 with closed-form derivatives, as a surface scalar field
    return closed_field(
        lambda s: c0 / s[1] ** 2,
        lambda s: np.array([0.0, -2.0 * c0 / s[1] ** 3]),
        lambda s: np.array([[0.0, 0.0], [0.0, 6.0 * c0 / s[1] ** 4]]),
    )


# ---------------------------------------------------------------------------
# presets and chart plumbing
# ---------------------------------------------------------------------------


def test_preset_chart_values_frozen():
    mink = preset("minkowski")
    np.testing.assert_array_equal(
        mink.chart.value(np.zeros(4)), np.diag([1.0, 1.0, 1.0, -1.0])
    )

    ads = preset("ads4", {"lam": 1.0})
    np.testing.assert_allclose(
        ads.chart.value(np.array([0.0, 0.0, 0.0, 1.0])), ETA, atol=1e-15
    )

    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    want = np.array(
        [[0.3, 0.5, 0, 0], [0.5, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
    )
    np.testing.assert_allclose(
        poly.chart.value(np.array([0.0, 0.0, 0.0, 1.0])), want, atol=1e-15
    )

    # Bessel profile wired through the chart: check against explicit trig form.
    bes = preset("ads4-deformed-bessel", {"lam": 1.0, "c": 2.0, "a": (1.0, 1.0, 1.0, 0.0)})
    g = bes.chart.value(np.array([0.0, 0.0, 0.0, 1.0]))
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
        # not numbers: no coercion of true or "1234", no TypeError from None
        ("ads4", {"lam": True}),
        ("ads4-deformed-poly", {"a": "1234"}),
        ("heterotic-ppwave", {"q0": [[1.0, 0.0], [0.0, None]]}),
        # exp(c x)^2 overflows on the sample box |x| <= 1.5 from c = 236.6
        ("ads4-deformed-bessel", {"c": 236.6}),
        # q0 not symmetric, and not positive definite (a negative diagonal or determinant)
        ("heterotic-ppwave", {"q0": [[1.0, 0.5], [0.0, 1.0]]}),
        ("heterotic-ppwave", {"q0": [[-1.0, 0.0], [0.0, -1.0]]}),
        ("heterotic-ppwave", {"q0": [[1.0, 0.0], [0.0, -1.0]]}),
    ],
)
def test_preset_rejects_non_finite_and_out_of_range_parameters(name, params):
    with pytest.raises(ValueError):
        preset(name, params)


@pytest.mark.parametrize("key, value", [("F", 1.0), ("K", None), ("q2", "abc")])
def test_walker_generic_rejects_a_surface_field_that_cannot_be_called(key, value):
    # such a value once built, and the first campaign raised TypeError from its difference jet
    with pytest.raises(ValueError, match=f"^walker-generic {key} must be a Field or a callable"):
        preset("walker-generic", dict(ADS4_CALLBACKS, **{key: value}))


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
def test_pair_and_surface_data_reject_a_non_finite_lam(lam):
    ads = preset("ads4")
    pair = pair_of(ads)
    with pytest.raises(ValueError, match="lam must be finite"):
        dataclasses.replace(ads.walker, lam=lam)
    with pytest.raises(ValueError, match="lam must be finite"):
        KillingData(pair.u, pair.l, lam)


def test_surface_data_need_a_nonzero_lam_and_a_pair_does_not():
    ads = preset("ads4")
    with pytest.raises(ValueError, match="lam must be nonzero"):
        dataclasses.replace(ads.walker, lam=0.0)
    # minkowski and heterotic-ppwave pair at lam 0; a negative rate is a pair too
    pair = pair_of(ads)
    for lam in (0.0, -1.0):
        assert KillingData(pair.u, pair.l, lam).lam == lam


def test_preset_accepts_small_and_large_finite_lambda():
    for lam in (1e-100, 1e100):
        assert preset("ads4", {"lam": lam}).walker.lam == lam
    assert preset("ads4-deformed-bessel", {"c": 236.5}).params["c"] == 236.5


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


def test_a_flux_is_read_only_inside_the_chart_domain():
    # as every other chart layer does, before any background field is read
    ads = preset("ads4")
    flux = form_field(form([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]))
    reads = []

    def jet(x, order):
        reads.append(order)
        return flux.jet(x, order)

    ps = dataclasses.replace(ads, heterotic=HeteroticConfig(
        zero_dilaton(), H=Field(jet), gauge=((1.0, flux),)))
    with pytest.raises(ValueError, match="point lies outside the chart domain"):
        score(ps, "heterotic", [0, 0, 0, -1])
    pts = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]])
    with pytest.raises(ValueError, match="point lies outside the chart domain"):
        score(ps, "heterotic", pts)
    assert reads == []
    assert all(np.all(np.isfinite(v)) for v in score(ps, "heterotic", pts[:1]).values())
    assert reads == [1]


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
    from oracles import riemann

    charts = [
        preset("ads4", {"lam": 0.8}).chart,
        preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)}).chart,
        preset("heterotic-ppwave", {}).chart,
    ]
    for chart in charts:
        for x in halfplane_points(4, 5):
            g, dg = chart.jet(x, 1)
            gamma = christoffel(chart, x)
            nabla_g = (
                dg
                - np.einsum("lki,lj->kij", gamma, g)
                - np.einsum("lkj,il->kij", gamma, g)
            )
            assert np.max(np.abs(nabla_g)) <= 1e-12 * max(1.0, np.max(np.abs(dg)))

            riem = on_chart(riemann, chart, x, 2)
            scale = max(1.0, np.max(np.abs(riem)))
            assert np.max(np.abs(riem + riem.transpose(0, 1, 3, 2))) <= 1e-12 * scale
            cyclic = riem + riem.transpose(0, 2, 3, 1) + riem.transpose(0, 3, 1, 2)
            assert np.max(np.abs(cyclic)) <= 1e-9 * scale


def preset_fields(ps):
    """Name -> (field, order of its jet, whether it lives on the surface) of every field of ps."""
    fields = {"chart": (ps.chart, 2, False)}
    if ps.walker is not None:
        fields.update({name: (getattr(ps.walker, name), 2, True) for name in ("F", "K", "q2")})
    if ps.killing is not None or ps.walker is not None:
        fields.update(u=(pair_of(ps).u, 1, False), l=(pair_of(ps).l, 1, False))
    if ps.heterotic is not None:
        fields["varphi"] = (ps.heterotic.varphi, 1, False)
    return fields


# exact AdS4 at lam = 1 as one-point callbacks: F = K = 1/y^2, q2 = delta/y^2
ADS4_CALLBACKS = {"lam": 1.0, "F": lambda s: 1.0 / s[1] ** 2, "K": lambda s: 1.0 / s[1] ** 2,
                  "q2": lambda s: np.eye(2) / s[1] ** 2}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["ads4", "ads4-deformed-poly", "ads4-deformed-bessel",
                             "walker-generic"]),
       log_lam=st.floats(-3.0, 3.0), c=st.floats(0.1, 20.0),
       a=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       bump=st.sampled_from([0.0, 0.1, -0.3]), seed=st.integers(0, 2**31 - 1))
def test_the_surface_block_of_g_inverse_is_q2_inverse(name, log_lam, c, a, bump, seed):
    # g = [[F, K], [K, 0]] (+) q2 is block-diagonal: einstein reads q2^-1 off g^-1, bit for bit
    params = {"ads4": {}, "ads4-deformed-poly": {"a": a}, "ads4-deformed-bessel": {"c": c, "a": a},
              "walker-generic": ADS4_CALLBACKS}[name]
    ps = preset(name, dict(params, lam=10.0**log_lam))
    if bump:
        ps = geometry_lab._perturbed(ps, bump)
    lower, upper = np.asarray(ps.sample_box, dtype=float).T
    x = _halton(32, seed) * (upper - lower) + lower
    _, ginv, _, _, q = geometry_lab._chart_jet(ps.chart, x, 2, ps.walker)
    assert ginv[..., 2:, 2:].tobytes() == np.linalg.inv(q[0]).tobytes()


def differenced(field):
    """field's values with the oracle's centred-difference partials: the field of its values alone."""
    parts = (field.value, functools.partial(_fd_jacobian, field.value),
             functools.partial(_fd_second, field.value))
    return Field(lambda x, order: tuple(part(x) for part in parts[:order + 1]),
                 in_domain=field.in_domain)


def test_fd_derivatives_match_analytic():
    # every field of every preset: its jet against the exact jet of a one-point numpy expression
    # of its value and against the oracle's centred differences of its own value, and each
    # chart's Ricci tensor against that of the chart of its values alone
    x = halfplane_points(3, 7)
    cases = [(name, ADS4_CALLBACKS if name == "walker-generic" else None)
             for name in sorted(geometry_lab._PRESET_BUILDERS)]
    # the default Bessel profile has no j1 term (a4 = 0)
    cases.append(("ads4-deformed-bessel", {"a": [1.0, 0.5, 0.3, 0.7]}))
    for name, params in cases:
        ps = preset(name, params)
        # walker-generic on the AdS4 callbacks is ads4 at lam = 1
        values = preset_field_values("ads4" if name == "walker-generic" else name, ps.params)
        assert set(values) == set(preset_fields(ps)), name
        for field_name, (field, order, surface) in preset_fields(ps).items():
            points = x[:, 2:] if surface else x
            jet = field.jet(points, order)
            exact = _jets.jet(values[field_name], points, order)
            fd = differenced(field).jet(points, order)
            assert len(jet) == len(exact) == len(fd) == order + 1, (name, field_name)
            for k in range(order + 1):
                assert within(jet[k], exact[k], 1e-12, floor=0.0), (name, field_name, k)
            for k in range(1, order + 1):
                assert within(fd[k], jet[k], 1e-5), (name, field_name, k)
        assert within(ricci(differenced(ps.chart), x), ricci(ps.chart, x), 1e-4), name


def within(got, want, rtol, floor=1.0):
    """|got - want| <= rtol * max(floor, |want|) at every point, each on its own largest |want|."""
    n = len(want)
    err = np.abs(got - want).reshape(n, -1).max(axis=1)
    return bool((err <= rtol * np.maximum(floor, np.abs(want).reshape(n, -1).max(axis=1))).all())


# ---------------------------------------------------------------------------
# chart Hodge star against the algebraic one
# ---------------------------------------------------------------------------


def test_exterior_of_a_signed_permutation_relabels_bit_for_bit():
    # dx^i = s_i e^p(i), as in the flat chart's coframe: row I is one signed basis form,
    # the ka_core.wedge of the rows in I
    ms = np.array([np.diag(signs)[list(perm)] for perm in itertools.permutations(range(4))
                   for signs in itertools.product((1.0, -1.0), repeat=4)])
    maps = geometry_lab._exterior(ms)
    for m, exterior in zip(ms, maps):
        want = [form(*m[[i for i in range(4) if mask >> i & 1]]) for mask in range(16)]
        assert np.array_equal(exterior, want)
        assert np.array_equal(geometry_lab._exterior(m), exterior)
    assert np.array_equal(maps[0], np.eye(16))
    _, inverse = geometry_lab._coframe(preset("minkowski").chart.value(np.zeros(4)))
    assert any(np.array_equal(inverse, m) for m in ms)


@pytest.mark.parametrize("p", range(5))
def test_wedge_signs_are_the_same_in_every_signature(p):
    # the chart forms wedge through Signature(3, 1)'s tables, whatever the chart's metric
    tables, lorentz = Signature(p, 4 - p).tables(), SIG.tables()
    assert np.array_equal(tables.wedge_sign, lorentz.wedge_sign)
    assert np.array_equal(tables.xor, lorentz.xor)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_exterior_rows_are_wedges_of_rows_and_compose(n, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, n, 4, 4))
    exterior = geometry_lab._exterior(a)
    scale = max(1.0, np.max(np.abs(a))) ** 4
    for mask in range(16):
        rows = [i for i in range(4) if mask >> i & 1]
        want = np.array([form(*m[rows]) for m in a])
        assert np.max(np.abs(exterior[:, mask] - want)) <= 1e-12 * scale
    assert np.max(np.abs(exterior[:, 15, 15] - np.linalg.det(a))) <= 1e-12 * scale
    # the wedge of the rows of a @ b is the product of the maps (Cauchy-Binet)
    other = geometry_lab._exterior(b)
    scale = max(1.0, np.max(np.abs(exterior))) * max(1.0, np.max(np.abs(other)))
    assert np.max(np.abs(geometry_lab._exterior(a @ b) - exterior @ other)) <= 1e-12 * scale


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
    omega = rng.standard_normal((n, 16)) * (SIG.tables().grade == k)
    # c @ _exterior(m) is the tensor transform of c by m, at every degree
    m = rng.standard_normal((n, 4, 4))
    want = np.array([frame_form(c, k, mi) for c, mi in zip(omega, m)])
    scale = np.max(np.abs(omega)) * max(1.0, np.max(np.abs(m))) ** k
    assert np.max(np.abs(in_frame(omega, m) - want)) <= 1e-12 * scale
    # the chart star, read through the coframe: dx^I is row I of _exterior(E^-1) there and e^J
    # row J of _exterior(E) in the chart; ka_core's star is oriented by e^1234 = det E dx^0123
    g = lorentzian_metrics(rng, n)
    frame, inverse = geometry_lab._coframe(g)
    orientation = np.sign(np.linalg.det(frame))[:, None]

    def star(c):
        dual = [hodge_star(Multivector(SIG, row)).coeffs for row in in_frame(c, inverse)]
        return orientation * in_frame(np.array(dual), frame)

    starred = star(omega)
    want = stack_from_tensor(_star(g, tensor_from_stack(omega, k)), 4 - k)
    assert np.max(np.abs(starred - want)) <= 1e-12 * np.max(np.abs(want))
    # ** = (-1)^(k(4-k)) sign(det g) = -(-1)^k on a Lorentzian chart
    twice = star(starred)
    sign = (-1.0) ** (k * (4 - k)) * np.sign(np.linalg.det(g))[:, None]
    assert np.max(np.abs(twice - sign * omega)) <= 1e-12 * np.max(np.abs(omega))


# ---------------------------------------------------------------------------
# covariant derivatives of one-forms
# ---------------------------------------------------------------------------


def test_covariant_derivative_flat_constant_field_vanishes():
    mink = preset("minkowski")
    field = Field.from_callable(lambda x: np.array([1.0, 2.0, -3.0, 0.5]))
    for x in halfplane_points(3, 8):
        nabla = covariant_derivative(mink.chart, field, x)
        assert np.max(np.abs(nabla)) <= 1e-9


def test_covariant_derivative_of_gradient_is_symmetric():
    ads = preset("ads4", {"lam": 1.0})

    def grad_f(x):
        return np.array(
            [np.cos(x[0]), x[3], -np.sin(x[2]) * x[3], x[1] + np.cos(x[2])]
        )

    field = Field.from_callable(grad_f)
    for x in halfplane_points(4, 9):
        nabla = covariant_derivative(ads.chart, field, x)
        assert np.max(np.abs(nabla - nabla.T)) <= 1e-6


def test_killing_one_form_split_on_ads4():
    ads = preset("ads4", {"lam": 0.7})
    u_field = pair_of(ads).u
    for x in halfplane_points(4, 10):
        nabla = covariant_derivative(ads.chart, u_field, x)
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
    # both residuals are relative to |alpha|, so rounding level at every lam
    for lam in (0.5, 1.0, 2.0):
        ads = preset("ads4", {"lam": lam})
        for x in halfplane_points(6, 12):
            res = scored(ads, "killing", x)
            assert res["square"] <= 1e-14
            assert res["ka"] <= 1e-14

    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    for x in halfplane_points(6, 13):
        res = scored(poly, "killing", x)
        assert res["square"] <= 1e-14
        assert res["ka"] <= 1e-14


def test_killing_pair_flat_parallel_case():
    mink = preset("minkowski")
    for x in halfplane_points(3, 14):
        res = scored(mink, "killing", x)
        assert res["square"] == 0.0
        assert res["ka"] == 0.0


def test_killing_pair_invariants_and_sensitivity():
    ads = preset("ads4", {"lam": 1.0})
    pair = pair_of(ads)
    x = np.array([0.2, -0.4, 0.3, 1.1])

    # l no longer unit: alpha is no square, and nabla(u ^ l) is 1.1 lam X ^ u
    bad_l = dataclasses.replace(
        pair.l, jet=lambda x, order: tuple(1.1 * part for part in pair.l.jet(x, order)))
    res = scored(dataclasses.replace(ads, killing=KillingData(pair.u, bad_l, 1.0)), "killing", x)
    assert res["square"] > 1e-3 and res["ka"] > 1e-3

    # a parabolic pair, but the wrong partner: a rotated spacelike direction
    def tilted(p):
        y = p[3]
        return np.array([0.0, 0.0, 0.6 / y, 0.8 / y])

    tilted_pair = KillingData(pair.u, Field.from_callable(tilted), 1.0)
    res = scored(dataclasses.replace(ads, killing=tilted_pair), "killing", x)
    assert res["square"] <= 1e-14
    assert res["ka"] > 1e-3


def constant_one_form(vector):
    return closed_field(lambda x: np.broadcast_to(np.asarray(vector, dtype=float), np.shape(x)),
                        lambda x: np.zeros(np.shape(x)[:-1] + (4, 4)))


def test_a_spacelike_u_fails_killing():
    # u = 1e-4 dx^0 is spacelike on the flat chart.  The tensor rule
    # floored its invariants at max(1, |u|, |l|)^2 and passed this pair.
    from oracles import tensor_killing_residuals

    mink = preset("minkowski")
    kd = KillingData(constant_one_form([1e-4, 0.0, 0.0, 0.0]),
                     constant_one_form([0.0, 1.0, 0.0, 0.0]), 0.0)
    old = tensor_killing_residuals(mink.chart, kd, halfplane_points(5, 26))
    assert max(np.max(old.r_u), np.max(old.r_l), np.max(old.parabolic)) <= 1e-6
    report = run_campaign(dataclasses.replace(mink, killing=kd), "killing", n_points=20, seed=1)
    assert report["verdict"] == "fail"
    assert report["residuals"]["killing.square"]["max"] > 0.1


def test_a_vanishing_u_is_a_fail_not_an_error():
    # u is exactly zero where x^0 < 0: alpha = 0 there squares only the zero spinor
    ads = preset("ads4")
    pair = pair_of(ads)
    u = pair.u

    def value(x):
        return u.value(x) * (x[..., :1] >= 0.0)

    def jac(x):
        return u.jet(x, 1)[1] * (x[..., None, :1] >= 0.0)

    kd = dataclasses.replace(pair, u=closed_field(value, jac))
    x = halfplane_points(8, 27)
    # the check scores the pair it is given, not the one the surface data derive
    ps = dataclasses.replace(ads, killing=kd)
    res = scored(ps, "killing", x)
    gone = x[:, 0] < 0.0
    assert gone.any() and not gone.all()
    assert np.all(res["square"][gone] == 1.0) and np.all(res["square"][~gone] <= 1e-14)
    assert np.all(np.isfinite(res["ka"]))
    report = run_campaign(ps, "killing", n_points=20, seed=3)
    assert report["verdict"] == "fail"
    assert report["residuals"]["killing.square"]["max"] == 1.0
    json.dumps(report, allow_nan=False)


def bumped(field, bump):
    """field + bump: its value moves, its partials stay."""
    def jet(x, order):
        parts = field.jet(x, order)
        return (parts[0] + bump,) + parts[1:]

    return dataclasses.replace(field, jet=jet)


def bumped_f(ps, bump):
    """The surface preset ps with F + bump: the chart moves, and l only by a gauge shift."""
    return dataclasses.replace(ps, walker=dataclasses.replace(ps.walker, F=bumped(ps.walker.F, bump)))


@settings(max_examples=30, deadline=None)
@given(log_lam=st.floats(-6.0, 6.0), bump=st.floats(0.05, 0.2),
       sign=st.sampled_from([1.0, -1.0]), seed=st.integers(0, 2**31 - 1))
def test_killing_passes_ads4_at_every_scale_and_under_f_bumps(log_lam, bump, sign, seed):
    # both residuals are relative to |alpha|, so no floor meets lam's scale
    ps = preset("ads4", {"lam": 10.0**log_lam})
    assert run_campaign(ps, "killing", n_points=10, seed=seed)["verdict"] == "pass"
    assert run_campaign(bumped_f(ps, sign * bump), "killing", n_points=10, seed=seed)["verdict"] == "pass"


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["ads4", "ads4-deformed-poly"]), lam=st.floats(0.5, 2.0),
       bump=st.floats(0.05, 0.2), seed=st.integers(0, 2**31 - 1))
def test_killing_fails_k_bumps(name, lam, bump, seed):
    # K + bump moves u = K dv and l = -dK/(2 lam K) off the pair system; at
    # small lam, where K ~ 1/(lam y)^2 swamps the bump, the control is blind
    report = run_campaign(preset(name, {"lam": lam}), "killing", n_points=10, seed=seed,
                          perturb=bump)
    assert report["verdict"] == "fail"


def test_ka_grade_one_defect_is_the_tensor_r_u_defect():
    # mapped back to the coordinate coframe, the grade-1 part of nabla_X alpha
    # - (lam/2)(X <> alpha - alpha <> X) is nabla u - lam (u (x) l - l (x) u)
    from oracles import tensor_killing_residuals

    cases = []
    for name, perturb in [("ads4", 0.0), ("ads4", 0.1), ("ads4-deformed-poly", 0.0),
                          ("ads4-deformed-poly", -0.2), ("heterotic-ppwave", 0.0),
                          ("heterotic-ppwave", 0.1)]:
        ps = preset(name)
        cases.append((geometry_lab._perturbed(ps, perturb) if perturb else ps, False))
    # K bumps leave the u equation exact; a stretched l breaks it
    ads = preset("ads4")
    pair = pair_of(ads)
    stretched = closed_field(lambda p: 1.1 * pair.l.value(p), lambda p: 1.1 * pair.l.jet(p, 1)[1])
    cases.append((dataclasses.replace(ads, killing=KillingData(pair.u, stretched, 1.0)), True))
    for ps, broken in cases:
        lower, upper = np.asarray(ps.sample_box).T
        x = make_rng(29, stream=3).uniform(lower, upper, size=(12, 4))
        kd = pair_of(ps)
        jet, ginv = geometry_lab._chart_jet(ps.chart, x, 1)
        frame, _, dual, alpha, d_alpha, size = geometry_lab._pair_frame(
            jet, ginv, kd.u.jet(x, 1), kd.l.jet(x, 1))
        defect = geometry_lab._ka_defect(alpha, d_alpha, (0.5 * kd.lam) * dual, geometry_lab._COFRAME)
        got = (defect[..., geometry_lab._COFRAME] @ frame) * size[:, None, None]
        want = tensor_killing_residuals(ps.chart, kd, x).d_u
        # relative to the size of the terms that cancel in the defect
        nabla_u = covariant_derivative(ps.chart, kd.u, x)
        u, l = kd.u.value(x), kd.l.value(x)
        scale = np.max(np.abs(nabla_u), axis=(1, 2)) + abs(kd.lam) * np.max(
            np.abs(u), axis=1) * np.max(np.abs(l), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-12 * scale), ps.name
        if broken:
            assert np.min(np.max(np.abs(want), axis=(1, 2)) / scale) > 1e-3


def test_pfaffian_consistency_of_pair_derivatives():
    # Antisymmetrizing the pair equations: du = 2*lam*(u (x) l - l (x) u),
    # and dl = kappa ^ u for some kappa, that is dl ^ u = 0.  Both hold in
    # every gauge l + f*u, where dl is no longer zero on the surface pairs.
    def exterior(field, x):
        jac = fd_jacobian(field, x)
        return jac - jac.T

    def dl_wedge_u(l_value, u, x):
        dl = exterior(l_value, x)
        cyclic = (np.einsum("ij,k->ijk", dl, u) + np.einsum("jk,i->ijk", dl, u)
                  + np.einsum("ki,j->ijk", dl, u))
        return np.max(np.abs(cyclic)) / max(1.0, np.max(np.abs(dl)) * np.max(np.abs(u)))

    def regauged(kd):
        return lambda x: kd.l.value(x) + (x[1] + np.sin(x[2]) * x[3]) * kd.u.value(x)

    for name, params in [
        ("ads4", {"lam": 0.9}),
        ("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.3, 0.4, 0.2)}),
        ("heterotic-ppwave", {"amp": 0.4}),
    ]:
        kd = pair_of(preset(name, params))
        for x in halfplane_points(4, 15):
            u = kd.u.value(x)
            for l_value in (kd.l.value, regauged(kd)):
                du = exterior(kd.u.value, x)
                target = 2.0 * kd.lam * (np.outer(u, l_value(x)) - np.outer(l_value(x), u))
                assert np.max(np.abs(du - target)) <= 1e-5 * max(1.0, np.max(np.abs(du)))
                assert dl_wedge_u(l_value, u, x) <= 1e-5, (name, x)

    # a partner that is not a gauge of l breaks it
    kd = pair_of(preset("ads4"))
    x = np.array([0.2, -0.4, 0.3, 1.1])
    assert dl_wedge_u(lambda p: kd.l.value(p) + np.array([0.0, 0.0, p[3], 0.0]),
                      kd.u.value(x), x) > 1e-3


# ---------------------------------------------------------------------------
# Walker-type surface system
# ---------------------------------------------------------------------------


def poincare_surface(lam):
    return closed_field(
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
        in_domain=lambda s: s[1] > 0,
    )


def test_walker_residuals_half_plane_profiles():
    lam = 0.7
    for c0 in (1.0, 2.0, -0.5):
        wd = WalkerData(
            F=Field.from_callable(lambda s: 0.0),
            K=half_plane_profile(c0),
            q2=poincare_surface(lam),
            lam=lam,
        )
        for s in halfplane_points(5, 16)[:, 2:]:
            res = scored(on_surface(wd), "walker", chart_point(s))
            assert res["hessian"] <= 1e-8
            assert res["laplacian"] <= 1e-8


def test_walker_residuals_on_presets_and_flag():
    ads = preset("ads4", {"lam": 1.2})
    for s in halfplane_points(5, 17)[:, 2:]:
        res = scored(ads, "walker", chart_point(s))
        assert max(res.values()) <= 1e-10

    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    for s in halfplane_points(5, 18)[:, 2:]:
        res = scored(poly, "walker", chart_point(s))
        assert max(res.values()) <= 1e-8

    # the profile equations read K alone: an F with no real gauge root changes nothing
    wd = WalkerData(
        F=Field.from_callable(lambda s: -s[1]),
        K=half_plane_profile(0.5),
        q2=poincare_surface(1.0),
        lam=1.0,
    )
    res = scored(on_surface(wd), "walker", chart_point([0.3, 1.4]))
    assert res["hessian"] <= 1e-8 and res["laplacian"] <= 1e-8


def test_walker_residuals_reject_bad_profiles():
    lam = 1.0
    wd = WalkerData(
        F=Field.from_callable(lambda s: 0.0),
        K=Field.from_callable(lambda s: 1.0),
        q2=poincare_surface(lam),
        lam=lam,
    )
    res = scored(on_surface(wd), "walker", chart_point([0.1, 1.0]))
    assert res["laplacian"] > 1.0

    vanishing = WalkerData(
        F=Field.from_callable(lambda s: 0.0),
        K=Field.from_callable(lambda s: s[0]),
        q2=poincare_surface(lam),
        lam=lam,
    )
    with pytest.raises(ValueError):
        score(on_surface(vanishing), "walker", chart_point([0.0, 1.0]))


def test_einstein_residual_families():
    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    for s in halfplane_points(5, 19)[:, 2:]:
        assert scored(poly, "einstein", chart_point(s))["chart"] <= 1e-8

    bes = preset("ads4-deformed-bessel", {"lam": 1.0, "c": 2.0, "a": (1.0, 1.0, 1.0, 0.0)})
    rng = make_rng(23, stream=5)
    for _ in range(20):
        s = np.array([rng.uniform(-1.5, 1.5), rng.uniform(0.1, 5.0)])
        assert scored(bes, "einstein", chart_point(s))["chart"] <= 1e-8

    # generic profile keeps the Killing system but breaks the Einstein one
    lam = 1.0
    generic = WalkerData(
        F=Field.from_callable(lambda s: np.exp(s[0]) * s[1] ** 3),
        K=half_plane_profile(0.5),
        q2=poincare_surface(lam),
        lam=lam,
    )
    x = chart_point([0.4, 1.2])
    assert max(scored(on_surface(generic), "walker", x).values()) <= 1e-8
    assert scored(on_surface(generic), "einstein", x)["chart"] > 1.0  # reads 5.72


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="einstein.chart divides by max|g|, and at amp 200 the "
                   "transverse block e^(2 phase) ~ 1e13 swamps Ric_vv ~ 1e4 (ROADMAP item 5)")
def test_einstein_fails_the_plane_wave_at_a_large_amplitude():
    # 2 du dv + e^(2 phase(v)) q0 has Ric_vv = -2 (phase'' + phase'^2), not zero for amp != 0;
    # amp 0.3 fails with einstein.chart 0.55, amp 200 passes with 4.1e-10
    report = run_campaign(preset("heterotic-ppwave", {"amp": 200.0}), "einstein", n_points=5)
    assert report["verdict"] == "fail", report["residuals"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="einstein.chart divides Ric + 3 lam^2 g by max|g| ~ 1/lam^2, while the "
                   "terms that cancel are of order 1, so its roundoff grows as lam^2 "
                   "(ROADMAP item 5)")
def test_einstein_passes_exact_ads4_at_a_large_lam():
    # Einstein with Ric = -3 lam^2 g; at lam 1e5 ads4 reads einstein.chart 5.0e-5, and the
    # Bessel family at lam 1e4, 9.4e-7, passes just under tol
    report = run_campaign(preset("ads4", {"lam": 1e5}), "einstein")
    assert report["verdict"] == "pass", report["residuals"]


@pytest.mark.parametrize("name, params", [
    ("ads4-deformed-bessel", {"c": 100.0}),
    ("ads4-deformed-bessel", {"c": 1e-20}),
    ("ads4-deformed-bessel", {"c": 236.5}),
    ("ads4-deformed-poly", {"a": [1e300, 1.0, 1.0, 1.0]}),
    ("ads4-deformed-bessel", {"lam": 1e4}),
])
def test_einstein_passes_the_deformed_families_at_extreme_parameters(name, params):
    # exact Einstein charts whose absolute F equation once read 3.3e48, 1.6e26, 3.9e134,
    # 9.3e285 and 2.4e-6; einstein.chart reads 1.7e-10, 1.4e-15, 6.6e-9, 8.3e-16 and 9.4e-7
    report = run_campaign(preset(name, params), "einstein")
    assert report["verdict"] == "pass", report["residuals"]
    assert report["residuals"]["einstein.chart"]["max"] <= 1e-6


def test_einstein_reads_lam_from_the_surface_data():
    # the surface data of lam = 0.7 on a copy of the lam = 1 preset: einstein.chart once
    # read a copied Preset.lam and failed with 1.53
    ps = on_surface(preset("ads4", {"lam": 0.7}).walker)
    assert ps.walker.lam == 0.7
    report = run_campaign(ps, "einstein", n_points=20, seed=0)
    assert report["verdict"] == "pass", report["residuals"]
    assert max(res["max"] for res in report["residuals"].values()) <= 1e-12


def test_a_copy_with_other_surface_data_scores_their_chart_and_lam():
    # replace(ps, walker=wd) with no chart of its own: the copy once kept ps's chart and lam
    ads, other = preset("ads4"), preset("ads4", {"lam": 0.7})
    ps = dataclasses.replace(ads, walker=other.walker)
    assert ps.walker.lam == 0.7
    x = halfplane_points(4, 3)
    for got, want in zip(ps.chart.jet(x, 2), other.chart.jet(x, 2)):
        assert np.array_equal(got, want)
    for check in ("killing", "einstein", "walker"):
        got, want = run_campaign(ps, check), run_campaign(other, check)
        assert (got["verdict"], got["residuals"]) == (want["verdict"], want["residuals"]), check
        assert got["verdict"] == "pass"


def test_a_preset_needs_a_chart_or_walker_data_and_takes_its_fields_by_keyword():
    ads, flat = preset("ads4"), preset("minkowski")
    with pytest.raises(ValueError, match="chart or walker"):
        Preset(name="empty", params={}, sample_box=ads.sample_box)
    # a chart passed beside walker data is replaced by the walker data's own
    ps = Preset(name="ads4", params={}, sample_box=ads.sample_box, chart=flat.chart, walker=ads.walker)
    x = halfplane_points(4, 3)
    for got, want in zip(ps.chart.jet(x, 2), ads.chart.jet(x, 2)):
        assert np.array_equal(got, want)
    # the order (name, params, chart, lam, sample_box) of earlier versions binds nothing
    with pytest.raises(TypeError):
        Preset("minkowski", {}, flat.chart, 0.0, flat.sample_box)


def test_walker_to_killing_transfer():
    # Pairs assembled from the surface data satisfy the chart-level system.
    # The pair reads K alone: F is free, so a generic callback F gives
    # the same u and l.
    ads = preset("ads4", {"lam": 1.1})
    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    generic = dataclasses.replace(poly.walker,
                                  F=Field.from_callable(lambda s: np.exp(s[0]) * s[1] ** 3))
    x = halfplane_points(4, 20)
    for wd in (ads.walker, poly.walker, generic):
        kd = walker_killing_data(wd)
        res = scored(dataclasses.replace(on_surface(wd), killing=kd), "killing", x)
        assert np.max(res["square"]) <= 1e-14
        assert np.max(res["ka"]) <= 1e-14
    for field in ("u", "l"):
        want = getattr(walker_killing_data(poly.walker), field).jet(x, 1)
        for got, part in zip(getattr(walker_killing_data(generic), field).jet(x, 1), want):
            assert np.array_equal(got, part)


EPS = np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(1e-2, 1e2), a=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
       seed=st.integers(0, 2**32 - 1))
def test_walker_killing_data_closed_forms(lam, a, seed):
    lower, upper = np.asarray(preset("ads4-deformed-poly").sample_box).T
    x = np.random.default_rng(seed).uniform(lower, upper, size=(3, 4))
    yy = x[:, 3]

    poly = preset("ads4-deformed-poly", {"lam": lam, "a": a})
    kd = walker_killing_data(poly.walker)
    # the closed-form Jacobian of l against centred differences of its value
    for p, jac in zip(x, kd.l.jet(x, 1)[1]):
        fd = fd_jacobian(kd.l.value, p)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd))), p
    # u = K dv and l = -dK/(2 lam K) = dy/(lam y), with K = 1/(2 y^2): no dv part
    u, l = kd.u.value(x), kd.l.value(x)
    assert np.all(u[:, 1:] == 0.0) and np.all(l[:, :3] == 0.0)
    np.testing.assert_allclose(u[:, 0], 0.5 / yy**2, rtol=4 * EPS, atol=0.0)
    np.testing.assert_allclose(l[:, 3], 1.0 / (lam * yy), rtol=4 * EPS, atol=0.0)

    # ads4: u = dv/(lam y)^2 and l = dy/(lam y), to a few ulps
    kd = pair_of(preset("ads4", {"lam": lam}))
    (u, ju), (l, jl) = kd.u.jet(x, 1), kd.l.jet(x, 1)
    assert np.all(u[:, 1:] == 0.0) and np.all(l[:, :3] == 0.0)
    np.testing.assert_allclose(u[:, 0], 1.0 / (lam * yy) ** 2, rtol=4 * EPS, atol=0.0)
    np.testing.assert_allclose(l[:, 3], 1.0 / (lam * yy), rtol=4 * EPS, atol=0.0)
    # the Jacobian's d_y l_y = (K'^2/K - K'')/(2 lam K) cancels 4 against 6 parts
    np.testing.assert_allclose(ju[:, 3, 0], -2.0 / (lam**2 * yy**3), rtol=8 * EPS, atol=0.0)
    np.testing.assert_allclose(jl[:, 3, 3], -1.0 / (lam * yy**2), rtol=16 * EPS, atol=0.0)
    assert np.count_nonzero(ju) == ju.shape[0] and np.count_nonzero(jl) == jl.shape[0]


@st.composite
def gauge_shifts(draw):
    """(f, df) of a constant or linear scalar f(x) = b + w . x on the chart."""
    b = draw(st.floats(-3.0, 3.0))
    w = np.zeros(4)
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)))
    return (lambda x: b + x @ w), (lambda x: np.broadcast_to(w, np.shape(x)))


def regauged_pair(kd, f, df):
    """The pair (u, l + f*u): dl becomes dl + df (x) u + f*du."""
    def jet(x, order):
        (u, du), (l, dl), fx = kd.u.jet(x, 1), kd.l.jet(x, 1), f(x)[..., None]
        return (l + fx * u, dl + df(x)[..., :, None] * u[..., None, :] + fx[..., None] * du)[:order + 1]

    return KillingData(kd.u, Field(jet), kd.lam)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["minkowski", "ads4", "ads4-deformed-poly", "heterotic-ppwave"]),
       perturb=st.sampled_from([0.0, 0.1]), shift=gauge_shifts(),
       n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_pair_residuals_are_invariant_under_the_gauge_of_l(name, perturb, shift, n, seed):
    # alpha = u + u ^ l sees l only up to l + f*u, and so do both residuals;
    # perturbed presets read far from zero, so their invariance there is a real test
    ps = preset(name)
    if perturb:
        ps = geometry_lab._perturbed(ps, perturb)
    lower, upper = np.asarray(ps.sample_box).T
    x = np.random.default_rng(seed).uniform(lower, upper, size=(n, 4))
    f, df = shift
    kd = pair_of(ps)
    base = scored(dataclasses.replace(ps, killing=kd), "killing", x)
    moved = scored(dataclasses.replace(ps, killing=regauged_pair(kd, f, df)), "killing", x)
    # the shift enters the products of alpha and its derivative once, with size |f| + |df|
    size = 1.0 + np.abs(f(x)) + np.max(np.abs(df(x)), axis=-1)
    for name, want in base.items():
        assert np.all(np.abs(moved[name] - want) <= 32 * EPS * size * (1.0 + want)), name


@pytest.mark.parametrize("name", ["ads4", "ads4-deformed-poly"])
@pytest.mark.parametrize("bump", [0.1, -0.1])
def test_a_bump_of_f_is_gauge_for_killing(name, bump):
    # F + c shifts only the gauge of l, so the pair system still holds
    # (scoring against a pinned shift one-form once read 0.100 here)
    ps = preset(name)
    report = run_campaign(bumped_f(ps, bump), "killing", n_points=50, seed=3)
    assert report["verdict"] == "pass"
    assert max(res["max"] for res in report["residuals"].values()) <= 1e-14
    # the same bump of K is a genuine control
    assert run_campaign(ps, "killing", n_points=50, seed=3, perturb=bump)["verdict"] == "fail"


def test_a_given_pair_is_scored_on_a_surface_preset():
    # a preset that carries both a pair and surface data scores the pair:
    # l = dx is no partner of u = K dv on ads4, where the derived l is dy/(lam y)
    ads = preset("ads4")
    kd = KillingData(pair_of(ads).u, constant_one_form([0.0, 0.0, 1.0, 0.0]), 1.0)
    ps = dataclasses.replace(ads, killing=kd)
    report = run_campaign(ps, "killing")
    assert report["verdict"] == "fail"
    assert report["residuals"]["killing.ka"]["max"] > 1.0
    # and score reads the same values at the campaign's points
    lower, upper = np.asarray(ps.sample_box).T
    values = score(ps, "killing", _halton(20, 0) * (upper - lower) + lower)
    for name, res in report["residuals"].items():
        assert (values[name].max(), sum(values[name].tolist()) / 20) == (res["max"], res["mean"])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("bump", [0.0, 0.05, 0.2])
def test_bessel_killing_scores_the_pair_its_k_derives(bump, seed):
    # the preset stores no pair; u = K dv and l = -dK/(2 lam K) come from its K
    ps = preset("ads4-deformed-bessel")
    assert ps.killing is None
    report = run_campaign(ps, "killing", seed=seed, perturb=bump)
    assert report["verdict"] == ("fail" if bump else "pass"), report["residuals"]


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


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 4]), lorentzian=st.booleans(), n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), log_dg=st.floats(-3.0, 3.0), log_d2g=st.floats(-3.0, 3.0))
def test_direct_ricci_is_the_trace_of_the_riemann_oracle(d, lorentzian, n, seed, log_dg, log_d2g):
    from oracles import ricci as riemann_trace

    # n random second-order jets: g symmetric with eigenvalues of size 1/2 to 2, one of them
    # negative when Lorentzian; dg symmetric in (ij); d2g symmetric in (mn) and in (ij)
    rng = make_rng(seed, stream=31)
    frame = np.linalg.qr(rng.standard_normal((n, d, d)))[0]
    eigenvalues = np.exp(rng.uniform(-0.7, 0.7, (n, d)))
    eigenvalues[:, 0] *= -1.0 if lorentzian else 1.0
    g = (frame * eigenvalues[:, None, :]) @ np.swapaxes(frame, -1, -2)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    dg = rng.standard_normal((n, d, d, d)) * np.exp(log_dg)
    dg = dg + np.swapaxes(dg, -1, -2)
    d2g = rng.standard_normal((n, d, d, d, d)) * np.exp(log_d2g)
    d2g = d2g + np.swapaxes(d2g, -1, -2)
    d2g = d2g + np.swapaxes(d2g, 1, 2)
    ginv = np.linalg.inv(g)
    got = geometry_lab._ricci((g, dg, d2g), ginv)
    # the size of the terms, g^-1 d2g and (g^-1 dg)^2; the two sum them in different orders
    size = np.max(np.abs(ginv), axis=(1, 2))
    size = size * np.max(np.abs(d2g), axis=(1, 2, 3, 4)) + (
        size * np.max(np.abs(dg), axis=(1, 2, 3))) ** 2
    tol = 64 * np.finfo(float).eps * size
    assert np.all(np.max(np.abs(got - riemann_trace((g, dg, d2g), ginv)), axis=(1, 2)) <= tol)
    assert np.all(np.max(np.abs(got - np.swapaxes(got, -1, -2)), axis=(1, 2)) <= tol)


def test_einstein_property_of_chart_families():
    for lam in (0.5, 1.0, 2.0):
        ads = preset("ads4", {"lam": lam})
        for x in halfplane_points(5, 22):
            g = ads.chart.value(x)
            ric = ricci(ads.chart, x)
            rel = np.max(np.abs(ric + 3 * lam**2 * g)) / np.max(np.abs(g))
            assert rel <= 1e-6

    for name, params in [
        ("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)}),
        ("ads4-deformed-bessel", {"lam": 1.0, "c": 2.0, "a": (1.0, 1.0, 1.0, 0.0)}),
    ]:
        ps = preset(name, params)
        for x in halfplane_points(5, 23):
            g = ps.chart.value(x)
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
        pulled_back = jac.T @ ads.chart.value(x) @ jac
        np.testing.assert_allclose(pulled_back, poly.chart.value(x), atol=1e-13)


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
        res = scored(ps, "heterotic", x)
        assert list(res) == list(HETEROTIC_RESIDUALS)
        assert max(res.values()) <= 1e-6
        assert res["bianchi"] == scored(ps, "bianchi", x)["modified"] <= 1e-9

    # dropping the conformal factor from l leaves it short of unit length
    q0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    l0 = q0[:, 0] / np.sqrt(q0[0, 0])
    bad_l = Field.from_callable(lambda p: np.array([0.0, 0.0, l0[0], l0[1]]))
    bad = KillingData(ps.killing.u, bad_l, 0.0)
    x = np.array([0.9, 0.1, -0.4, 0.7])
    res = scored(dataclasses.replace(ps, killing=bad), "heterotic", x)
    assert res["square"] > 1e-3 and res["gravitino"] > 1e-3
    # and the unit l without its v-derivative breaks the gravitino equation alone
    frozen_l = closed_field(ps.killing.l.value, lambda p: np.zeros((4, 4)))
    frozen = KillingData(ps.killing.u, frozen_l, 0.0)
    res = scored(dataclasses.replace(ps, killing=frozen), "heterotic", x)
    assert res["square"] <= 1e-12 and res["gravitino"] > 1e-3


def test_heterotic_flat_trivial_configuration():
    mink = preset("minkowski")
    hc = HeteroticConfig(varphi=Field.from_callable(lambda x: np.zeros(4)))
    ps = dataclasses.replace(mink, heterotic=hc)
    for x in halfplane_points(3, 25):
        assert max(scored(ps, "heterotic", x).values()) <= 1e-9
        assert scored(ps, "bianchi", x)["modified"] <= 1e-12


def test_heterotic_gaugino_decomposition():
    mink = preset("minkowski")
    u = np.array([1.0, 0.0, 0.0, 1.0])
    chi0 = np.array([0.0, 0.3, 0.5, 0.0])
    good = HeteroticConfig(varphi=zero_dilaton(), gauge=((1, form_field(form(u, chi0))),))
    bad = HeteroticConfig(varphi=zero_dilaton(),
                          gauge=((1, form_field(form(np.eye(4)[1], np.eye(4)[2]))),))
    x = np.zeros(4)
    good, bad = (dataclasses.replace(mink, heterotic=hc) for hc in (good, bad))
    assert scored(good, "heterotic", x)["gaugino"] <= 1e-12
    assert scored(bad, "heterotic", x)["gaugino"] > 0.1
    # curvature of the split form wedges to zero against itself
    assert scored(good, "bianchi", x)["modified"] <= 1e-12


def test_modified_bianchi_detects_nonclosed_flux():
    # H = x^0 dx^1 ^ dx^2 ^ dx^3 with its closed-form partials: dH = dx^0123, exactly
    mink = preset("minkowski")
    e = np.eye(4)
    three_form = form_field(form(e[1], e[2], e[3]), lambda x: x[..., 0], lambda x: e[0])
    ps = dataclasses.replace(mink, heterotic=HeteroticConfig(zero_dilaton(), H=three_form))
    x = np.array([0.3, 0.2, -0.5, 0.9])
    assert score(ps, "bianchi", x)["bianchi.modified"] == 1.0
    assert score(ps, "heterotic", x)["heterotic.rho_coclosed"] == 1.0


def test_every_gauge_curvature_enters_the_bianchi_source():
    # F ^ F = 2 dx^0123 for F = dx^01 + dx^23; a curvature without a sign was once dropped
    mink = preset("minkowski")
    e = np.eye(4)
    F = form_field(form(e[0], e[1]) + form(e[2], e[3]))
    ps = dataclasses.replace(mink, heterotic=HeteroticConfig(zero_dilaton(), gauge=((1.0, F),)))
    x = np.array([0.3, 0.2, -0.5, 0.9])
    assert score(ps, "bianchi", x)["bianchi.modified"] == 2.0
    assert score(ps, "heterotic", x)["heterotic.bianchi"] == 2.0


def ppwave_with_flux():
    """heterotic-ppwave with a flux H = h(v, u, y) * (dv^dx^dy + ...) and two gauge curvatures.

    No preset carries a flux or gauge field; this one runs dH and the
    coclosedness of *H, H in the gravitino and dilatino relations, the
    gaugino relation (one curvature splits through u, one does not) and
    the F ^ F source of the Bianchi identity, none of which vanishes.
    Every form is a Field with closed-form partials.
    """
    ps = preset("heterotic-ppwave", {"amp": 0.3, "q0": [[2.0, 0.3], [0.3, 1.0]]})
    dv, du, dx, dy = np.eye(4)
    flux = form(dv, dx, dy) + 0.5 * form(du, dx, dy) - 0.3 * form(dv, du, dy)
    split = form(dv, 0.4 * dx - 0.7 * dy)
    mixed = form(dv, du) + form(dx, dy)

    def h(x):
        return 0.4 + 0.3 * np.sin(x[..., 0]) + 0.2 * x[..., 1] * x[..., 3]

    def dh(x):
        v, u, _, y = np.moveaxis(x, -1, 0)
        return np.stack([0.3 * np.cos(v), 0.2 * y, 0.0 * v, 0.2 * u], axis=-1)

    def along(axis, slope):
        return lambda x: np.multiply.outer(slope(x[..., axis]), np.eye(4)[axis])

    gauge = ((1.0, form_field(split, lambda x: np.cos(x[..., 2]), along(2, lambda t: -np.sin(t)))),
             (-0.5, form_field(mixed, lambda x: 1.0 + x[..., 3], along(3, np.ones_like))))
    hc = dataclasses.replace(ps.heterotic, H=form_field(flux, h, dh), gauge=gauge)
    return dataclasses.replace(ps, heterotic=hc)


def test_heterotic_residuals_with_flux_match_the_tensor_oracle():
    from oracles import _FD_SCALE, tensor_bianchi_residual, tensor_heterotic_residuals

    ps = ppwave_with_flux()
    x = make_rng(37, stream=5).uniform(-2.0, 2.0, size=(6, 4))
    got, want = scored(ps, "heterotic", x), tensor_heterotic_residuals(ps, x)
    want["bianchi"] = tensor_bianchi_residual(ps.heterotic, x)
    assert list(got) == list(HETEROTIC_RESIDUALS)
    for name in ("rho_coclosed", "dphi_closed", "bianchi"):
        tol = 1e-12 * np.maximum(np.abs(want[name]), 1.0)
        if name == "rho_coclosed":
            # |*dH| from H's closed-form jet against the oracle's divergence of
            # the differenced density, with step h ~ _FD_SCALE: rounding in the
            # differenced values moves the oracle by ~ eps / h
            tol += 4.0 * EPS / _FD_SCALE
        assert np.all(np.abs(got[name] - want[name]) <= tol), name
    # the flux and gauge terms are live: each Kaehler-Atiyah relation reads
    # well above rounding, and so do the tensor relations it replaces
    assert np.max(got["square"]) <= 1e-12
    for name, relations in [("dilatino", ALGEBRAIC), ("gaugino", ("gaugino_fit",)),
                            ("gravitino", ("grad_l",)), ("rho_coclosed", ("rho_coclosed",)),
                            ("bianchi", ("bianchi",))]:
        assert np.min(got[name]) > 1e-6, name
        assert np.min(np.max([want[r] for r in relations], axis=0)) > 1e-6, name
    # and the stacked evaluation equals the point-by-point one
    rows = [scored(ps, "heterotic", p) for p in x]
    for name, value in got.items():
        assert np.array_equal(value, [row[name] for row in rows]), name


def test_a_flux_block_reads_the_chart_once_per_stencil_point():
    # the block's order-1 jet alone: rho_coclosed is |*dH|, from the one
    # 1-jet of H that the Bianchi residual reads as well
    ps = ppwave_with_flux()
    orders = []

    def jet(x, order):
        orders.append(order)
        return ps.chart.jet(x, order)

    counted = dataclasses.replace(ps, chart=dataclasses.replace(ps.chart, jet=jet))
    x = make_rng(41, stream=5).uniform(-2.0, 2.0, size=(5, 4))
    got = scored(counted, "heterotic", x)
    assert orders == [1]
    want = scored(ps, "heterotic", x)
    for name, value in want.items():
        assert np.array_equal(got[name], value), name


def constant_chart(g):
    return closed_field(lambda x: np.broadcast_to(g, np.shape(x)[:-1] + (4, 4)).copy(),
                        lambda x: np.zeros(np.shape(x)[:-1] + (4, 4, 4)),
                        lambda x: np.zeros(np.shape(x)[:-1] + (4, 4, 4, 4)))


def pointwise_field(value, jac):
    """A one-form field reading value and the Jacobian jac at every point: a jet, not a field."""
    return closed_field(lambda x: np.broadcast_to(value, np.shape(x)).copy(),
                        lambda x: np.broadcast_to(jac, np.shape(x)[:-1] + (4, 4)).copy())


def heterotic_background(g, u, l, phi, H=None, curvatures=(), u_jac=0.0, l_jac=0.0, phi_jac=0.0):
    """A preset of this background on the constant chart g; H and the curvatures are (16,) stacks
    or Fields, the curvatures' signs 1 and -0.5."""
    def stack(f):
        return f if isinstance(f, Field) else form_field(f)

    def jet(value, jac):
        return pointwise_field(value, np.broadcast_to(jac, (4, 4)))

    hc = HeteroticConfig(jet(phi, phi_jac), None if H is None else stack(H),
                         tuple(zip((1.0, -0.5), map(stack, curvatures))))
    return Preset(name="constant", params={}, sample_box=((-1.0, 1.0),) * 4, chart=constant_chart(g),
                  killing=KillingData(jet(u, u_jac), jet(l, l_jac), 0.0), heterotic=hc)


def frame_form(c, k, inverse):
    """The degree-k stack c over dx^i as a stack over the coframe e^a = A[a, i] dx^i, A^-1 = inverse."""
    from oracles import stack_from_tensor, tensor_from_stack

    tensor = tensor_from_stack(c, k)
    for _ in range(k):
        # contract the leading original axis; its frame axis goes last, so the order is kept
        tensor = np.tensordot(tensor, inverse, axes=([0], [0]))
    return stack_from_tensor(tensor, k)


def kernel_rank(*maps):
    """The rank of the stacked maps, relative to their largest singular value."""
    sv = np.linalg.svd(np.vstack(maps), compute_uv=False)
    return int(np.sum(sv > 1e-9 * sv[0]))


def lorentz_coframe(rng):
    """A with g = A^T eta A, its singular values in [e^-1, e]: cond(A) <= e^2, det either sign."""
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return (q1 * np.exp(rng.uniform(-1.0, 1.0, size=4))) @ q2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_heterotic_ka_relations_hold_exactly_where_the_tensor_relations_do(seed):
    from oracles import (_star, random_parabolic_pair, stack_from_tensor,
                         tensor_algebraic_relations, tensor_from_stack, tensor_heterotic_residuals)

    rng = np.random.default_rng(seed)
    A = lorentz_coframe(rng)
    inverse = np.linalg.inv(A)
    g = A.T @ np.diag([1.0, 1.0, 1.0, -1.0]) @ A
    pair = random_parabolic_pair(rng)
    u_frame, l_frame = pair.u.one_form_components(), pair.l.one_form_components()
    u, l = u_frame @ A, l_frame @ A
    alpha = Multivector(SIG, form(u_frame) + form(u_frame, l_frame))
    x = np.zeros(4)

    def flux(rho):
        return stack_from_tensor(_star(g, rho), 3)

    def residuals(phi, rho, **kw):
        ps = heterotic_background(g, u, l, phi, flux(rho), **kw)
        return scored(ps, "heterotic", x), tensor_heterotic_residuals(ps, x)

    # dilatino: the tensor relations and (phi - H) <> alpha, with H = *rho,
    # are linear in (phi, rho) and have one kernel
    tensor = np.stack([np.concatenate([np.ravel(r) for r in tensor_algebraic_relations(
        g, u, l, e[:4], e[4:])]) for e in np.eye(8)], axis=1)
    ka = np.stack([geometric_product(Multivector(
        SIG, form(e[:4] @ inverse) - frame_form(flux(e[4:]), 3, inverse)), alpha).coeffs
        for e in np.eye(8)], axis=1)
    rank = kernel_rank(tensor)
    assert kernel_rank(ka) == rank == kernel_rank(tensor, ka)
    basis = np.linalg.svd(tensor)[2]
    kernel = rng.standard_normal(8 - rank) @ basis[rank:]
    off = rng.standard_normal(rank) @ basis[:rank]
    got, want = residuals(kernel[:4], kernel[4:])
    assert got["dilatino"] <= 1e-12 and max(want[name] for name in ALGEBRAIC) <= 1e-12
    assert want["rho_phi_orthogonal"] <= 1e-12
    point = kernel + off / np.max(np.abs(off))
    got_off, want_off = residuals(point[:4], point[4:])
    assert got_off["dilatino"] > 1e-6 and max(want_off[name] for name in ALGEBRAIC) > 1e-6

    # gravitino: jets of the corrected tensor rule nabla u = (u (x) phi - phi (x) u)/2,
    # nabla l = -*(rho ^ l)/2 + kappa (x) u, on a kernel point of the dilatino
    phi, rho = kernel[:4], kernel[4:]
    u_jac = 0.5 * (np.outer(u, phi) - np.outer(phi, u))
    l_jac = (-0.5 * _star(g, tensor_from_stack(form(rho, l), 2))
             + np.outer(rng.standard_normal(4), u))
    got, want = residuals(phi, rho, u_jac=u_jac, l_jac=l_jac)
    assert max(got["square"], got["gravitino"], got["dilatino"]) <= 1e-12
    assert max(want["grad_u"], want["grad_l"]) <= 1e-12

    # gaugino: F <> alpha = 0 exactly for F in u ^ u-perp, a plane, which is the whole kernel
    perp = np.linalg.svd((np.linalg.inv(g) @ u)[None, :])[2][1:]
    inside, outside = form(u, rng.standard_normal(3) @ perp), form(*rng.standard_normal((2, 4)))
    planes = [form(*np.eye(4)[[i, j]]) for i in range(4) for j in range(i + 1, 4)]
    gauge = np.stack([geometric_product(Multivector(SIG, frame_form(F, 2, inverse)), alpha).coeffs
                      for F in planes], axis=1)
    assert kernel_rank(gauge) == 4
    got, want = residuals(phi, rho, curvatures=(inside,))
    assert got["gaugino"] <= 1e-12 and want["gaugino_fit"] <= 1e-12
    got, want = residuals(phi, rho, curvatures=(inside, outside))
    assert got["gaugino"] > 1e-6 and want["gaugino_fit"] > 1e-6


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), axis=st.integers(0, 3))
def test_heterotic_residuals_are_invariant_under_a_coordinate_reflection(seed, axis):
    # x^axis -> -x^axis reverses the coordinate orientation against the frame's
    from oracles import random_parabolic_pair

    rng = np.random.default_rng(seed)
    A = lorentz_coframe(rng)
    g = A.T @ np.diag([1.0, 1.0, 1.0, -1.0]) @ A
    pair = random_parabolic_pair(rng)
    u, l = pair.u.one_form_components() @ A, pair.l.one_form_components() @ A
    phi, jacs = rng.standard_normal(4), rng.standard_normal((3, 4, 4))
    grade = SIG.tables().grade
    flux = rng.standard_normal((5, 16)) * (grade == 3)
    gauge = rng.standard_normal((2, 5, 16)) * (grade == 2)
    x = rng.uniform(-1.0, 1.0, size=4)
    flip = np.ones(4)
    flip[axis] = -1.0
    signs = np.where(np.arange(16) >> axis & 1, -1.0, 1.0)  # dx^I -> -dx^I where I holds axis

    def affine(c, m):
        """The stack field p -> c[0] + p @ c[1:], pulled back by the map x -> m * x."""
        sign = signs if m[axis] < 0 else 1.0
        return closed_field(lambda p: sign * (c[0] + (m * p) @ c[1:]),
                            lambda p: np.broadcast_to(sign * m[:, None] * c[1:], p.shape + (16,)))

    def background(m):
        def pulled(jac):
            return m[:, None] * jac * m

        return heterotic_background(m[:, None] * g * m, u * m, l * m, phi * m, affine(flux, m),
                                    tuple(affine(c, m) for c in gauge), *map(pulled, jacs))

    base = scored(background(np.ones(4)), "heterotic", x)
    mirrored = scored(background(flip), "heterotic", flip * x)
    for name, value in base.items():
        assert abs(mirrored[name] - value) <= 1e-10 * max(1.0, value), name
    assert base["dilatino"] > 1e-6 and base["gravitino"] > 1e-6 and base["rho_coclosed"] > 1e-6


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
    assert set(report["residuals"]) == {"killing.square", "killing.ka"}
    for name in report["residuals"]:
        assert report["residuals"][name]["max"] <= 1e-6
        assert 0.0 <= report["residuals"][name]["mean"] <= report["residuals"][name]["max"]

    again = run_campaign(ads, "killing", n_points=20, seed=7)
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)

    assert run_campaign(ads, "einstein", seed=3)["verdict"] == "pass"
    assert run_campaign(ads, "walker", seed=3)["verdict"] == "pass"


def test_a_campaign_report_holds_a_copy_of_its_presets_params():
    ps = preset("ads4-deformed-poly")
    report = run_campaign(ps, "einstein", n_points=2)
    report["params"]["lam"] = 7.0
    report["params"]["a"][0] = 99.0
    assert ps.params == {"lam": 1.0, "a": [1.0, 0.5, 0.2, 0.1]}
    assert run_campaign(ps, "einstein", n_points=2)["params"] == ps.params


def test_run_campaign_perturbation_sensitivity():
    poly = preset("ads4-deformed-poly", {"lam": 1.0, "a": (1.0, 0.5, 0.2, 0.1)})
    clean = run_campaign(poly, "einstein", seed=5)
    assert clean["verdict"] == "pass"
    bumped = run_campaign(poly, "einstein", seed=5, perturb=0.01)
    assert bumped["verdict"] == "fail"
    assert bumped["residuals"]["einstein.chart"]["max"] > 1e-3  # reads 0.71

    mink = preset("minkowski")
    assert run_campaign(mink, "killing", seed=5)["verdict"] == "pass"
    assert run_campaign(mink, "killing", seed=5, perturb=0.01)["verdict"] == "fail"

    # on a surface preset the bump is K + 0.01, which breaks u, l and the profile
    for check in ("killing", "walker"):
        assert run_campaign(poly, check, seed=5)["verdict"] == "pass"
        assert run_campaign(poly, check, seed=5, perturb=0.01)["verdict"] == "fail"

    # elsewhere the metric times 1.01 leaves l short of unit length: the heterotic square test sees it
    ppwave = preset("heterotic-ppwave")
    assert run_campaign(ppwave, "heterotic", seed=5)["verdict"] == "pass"
    bumped = run_campaign(ppwave, "heterotic", seed=5, perturb=0.01)
    assert bumped["verdict"] == "fail"
    assert bumped["residuals"]["heterotic.square"]["max"] > 1e-3


def test_run_campaign_rejects_missing_data():
    with pytest.raises(ValueError, match="carries no surface data"):
        run_campaign(preset("heterotic-ppwave"), "walker")
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
    assert report["residuals"]["heterotic.gravitino"]["max"] <= 1e-6


@pytest.mark.parametrize("perturb", [float("nan"), float("inf"), -float("inf")])
def test_run_campaign_rejects_non_finite_perturb(perturb):
    with pytest.raises(ValueError):
        run_campaign(preset("ads4"), "einstein", n_points=2, perturb=perturb)


@pytest.mark.parametrize("n_points", [0, -3, 2.5, 20.0, True, "20", None])
def test_run_campaign_rejects_a_point_count_that_is_not_a_positive_integer(n_points):
    # 0 returned a vacuous pass, -3 failed inside the sampler and 2.5 with a TypeError
    with pytest.raises(ValueError, match="n_points must be a positive integer"):
        run_campaign(preset("ads4"), "einstein", n_points=n_points)


@pytest.mark.parametrize("kwargs, message", [
    # nan and -1 failed exact AdS4, inf passed anything
    ({"tol": float("nan")}, "tol must be finite"),
    ({"tol": float("inf")}, "tol must be finite"),
    ({"tol": -1.0}, "tol must be positive"),
    ({"tol": 0.0}, "tol must be positive"),
    ({"tol": "1e-6"}, "tol must be a number"),
    # 1.5 raised TypeError inside the sampler, and True scored seed 1
    ({"seed": 1.5}, "seed must be a non-negative integer"),
    ({"seed": True}, "seed must be a non-negative integer"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"seed": "3"}, "seed must be a non-negative integer"),
])
def test_run_campaign_rejects_a_tol_or_seed_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_campaign(preset("ads4"), "einstein", n_points=2, **kwargs)


def test_run_campaign_takes_any_positive_integer_point_count():
    want = run_campaign(preset("ads4"), "einstein", n_points=3)
    assert run_campaign(preset("ads4"), "einstein", n_points=np.int64(3)) == want
    assert want["points"] == 3 and type(want["points"]) is int
    # numpy integers and a seed of 0 are valid too
    assert run_campaign(preset("ads4"), "einstein", n_points=3, seed=np.uint8(0)) == want


@pytest.mark.parametrize("name", ["minkowski", "heterotic-ppwave"])
@pytest.mark.parametrize("perturb", [-1.0, -2.0])
def test_run_campaign_rejects_a_rescale_that_is_not_positive(name, perturb):
    # 1 + perturb = 0 makes g singular, and < 0 flips its signature
    ps = preset(name)
    for check in ("killing", "einstein"):
        with pytest.raises(ValueError, match=r"rescales the metric by 1 \+ perturb = -?[01]\.0"):
            run_campaign(ps, check, n_points=2, perturb=perturb)


def test_a_rescale_just_above_zero_and_a_surface_bump_are_scored():
    # 1 + perturb = 0.001 still rescales the metric
    for name in ("minkowski", "heterotic-ppwave"):
        report = run_campaign(preset(name), "killing", n_points=3, perturb=-0.999)
        assert report["verdict"] == "fail", name
    # a surface preset bumps K, not the metric: any finite amount is a control
    for perturb in (-1.0, -2.0, -0.999):
        for check in ("einstein", "walker"):
            report = run_campaign(preset("ads4"), check, n_points=3, perturb=perturb)
            assert report["verdict"] == "fail", (perturb, check)


def test_halton_matches_scipy_bit_for_bit():
    from scipy.stats import qmc

    for seed in [*range(100), 2**31 - 1]:
        for n in (1, 5, 20, 100, 257):
            want = qmc.Halton(d=4, scramble=True, seed=seed).random(n)
            assert np.array_equal(_halton(n, seed), want), (seed, n)


def test_halton_blocks_match_scipy_and_each_other(monkeypatch):
    from scipy.stats import qmc

    from kaspin import geometry_lab

    n = 2 * geometry_lab.POINT_BLOCK + 5
    for seed in (0, 7):
        want = qmc.Halton(d=4, scramble=True, seed=seed).random(n)
        assert np.array_equal(_halton(n, seed), want), seed
    monkeypatch.setattr(geometry_lab, "POINT_BLOCK", 7)
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


def test_halton_digit_tables_are_a_small_sealed_cache_per_block():
    from kaspin import geometry_lab

    digits = geometry_lab._halton_digits
    digits.cache_clear()
    first = _halton(5, 0)
    # a 5-point campaign expands only its own 5 points, and a second draw of 5 reads them again
    table = digits(0, 5)
    assert digits.cache_info().currsize == 1
    # (places, points, bases): 53 places of bases 2, 3, 5 and 7; the 2 * 53 + 3 * 34 + 5 * 23
    # + 7 * 19 digits and one padding digit: 16 bits index them
    assert table.shape == (53, 5, 4) and table.dtype == np.uint16
    with pytest.raises(ValueError):
        table.setflags(write=True)
    assert np.array_equal(_halton(5, 1), _halton(5, 1)) and digits.cache_info().currsize == 1
    _halton(100_000, 1)
    # a block at a time, of at most POINT_BLOCK points, and only the last few blocks are kept
    info = digits.cache_info()
    assert info.currsize == info.maxsize <= 4
    assert digits(0, geometry_lab.POINT_BLOCK).shape == (53, geometry_lab.POINT_BLOCK, 4)
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
