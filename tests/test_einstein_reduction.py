"""The surface Einstein reduction is einstein.chart's tensor E = Ric + 3 lam^2 g plus |l| = 1.

On the chart F dv^2 + 2 K dv du + q2 the F equation and Ric(q2) + lam^2
q2, the reduction of the Einstein equation to the surface, are
components of E plus delta = 4 lam^2 (1 - |l|^2) for the pair's l =
-dK/(2 lam K).  The identities are proved here in sympy: beyond
einstein.chart they state only that l is unit, which killing.square
holds, so einstein reports einstein.chart alone.  Per point, the
tensor einstein.chart scores is held against the former second pass on
q2 and F (oracles.surface_reduction), and a block is checked to compute
one Ricci tensor.
"""

import numpy as np
import pytest
import sympy as sp

from kaspin import geometry_lab
from kaspin.geometry_lab import _halton, _perturbed, preset, score

import symbolic
from oracles import _pair, preset_field_values, surface_reduction

SURFACE = ("ads4", "ads4-deformed-poly", "ads4-deformed-bessel", "walker-generic")
EPS = np.finfo(float).eps


def build(name, lam=1.0):
    """The named preset at lam; walker-generic on the exact AdS4 callbacks at that lam."""
    if name != "walker-generic":
        return preset(name, {"lam": lam} if name in SURFACE else None)
    fields = preset_field_values("ads4", {"lam": lam})
    return preset(name, {"lam": lam, **{key: fields[key] for key in ("F", "K", "q2")}})


def points(ps, n=32, seed=5):
    lower, upper = np.asarray(ps.sample_box, dtype=float).T
    return _halton(n, seed) * (upper - lower) + lower


# ---------------------------------------------------------------------------
# the identities, exactly
# ---------------------------------------------------------------------------


def is_zero(expr):
    """Whether the rational expression expr vanishes identically: the numerator of its one
    fraction expands to 0."""
    return sp.expand(sp.numer(sp.together(expr))) == 0


def test_the_surface_reduction_is_einstein_components_plus_delta():
    w = symbolic.walker()
    assert all(is_zero(entry) for entry in w.g * w.ginv - sp.eye(4))
    x, y = w.coords[2:]
    lam, F, K, q, qinv, E = w.lam, w.F, w.K, w.q, w.qinv, w.E
    dK, dF = (sp.Matrix([h.diff(x), h.diff(y)]) for h in (K, F))
    hess_f = sp.Matrix(2, 2, lambda i, j: F.diff((x, y)[i], (x, y)[j])
                       - sum(w.gamma_q[k][i][j] * dF[k] for k in range(2)))
    delta = 4 * lam**2 - (dK.T * qinv * dK)[0] / K**2
    # delta is 4 lam^2 (1 - |l|^2) for the pair's l = -dK/(2 lam K)
    l = -dK / (2 * lam * K)
    assert is_zero(delta - 4 * lam**2 * (1 - (l.T * qinv * l)[0]))
    f_equation = (qinv * hess_f).trace() - (dK.T * qinv * dF)[0] / K - 2 * lam**2 * F
    assert is_zero(f_equation - (F * delta - 2 * E[0, 0]))
    conformal = (qinv * E[2:, 2:]).trace() / 2 - E[0, 1] / K + delta / 4
    assert all(is_zero(entry) for entry in w.ricci_q + lam**2 * q - conformal * q)


# ---------------------------------------------------------------------------
# the values, against the former second pass
# ---------------------------------------------------------------------------


def reduction_from_e(ps, x):
    """(E, g, reduction, scales) at the chart points x of the surface preset ps.

    E = Ric + 3 lam^2 g is the tensor einstein.chart scores; reduction holds
    the F equation |F delta - 2 E_vv| and Ric(q2) + lam^2 q2 = (tr(q2^-1
    E_xy) / 2 - E_vu / K + delta / 4) q2 read off it, with delta = 4 lam^2
    - q2^-1(dK/K, dK/K).  scales holds, per point and entry, the sum of the
    magnitudes of the terms that this form and the second pass add up: the
    roundoff of either is a few eps times this.
    """
    lam = ps.walker.lam
    jet, ginv, f, k, q = geometry_lab._chart_jet(ps.chart, x, 2, ps.walker)
    e = geometry_lab._ricci(jet, ginv) + 3.0 * lam**2 * jet[0]
    qinv, q_inv_abs = ginv[..., 2:, 2:], np.abs(ginv[..., 2:, 2:])
    grad = k[1] / k[0][..., None]
    grad_sq = _pair(grad, qinv, grad)
    delta = 4.0 * lam**2 - grad_sq
    conformal = (0.5 * (qinv @ e[..., 2:, 2:]).trace(axis1=-2, axis2=-1)
                 - e[..., 0, 1] / k[0] + 0.25 * delta)
    reduction = {"f_equation": np.abs(f[0] * delta - 2.0 * e[..., 0, 0]),
                 "ricci_q": np.abs(conformal) * geometry_lab._max_abs(q[0], 2)}
    f_abs = np.abs(f[0])
    f_terms = (f_abs * (6.0 * lam**2 + grad_sq) + 2.0 * np.abs(e[..., 0, 0])
               + (q_inv_abs * np.abs(f[2])).sum(axis=(-2, -1))
               + _pair(np.abs(k[1]), q_inv_abs, np.abs(f[1])) / np.abs(k[0]))
    q_terms = (0.5 * (q_inv_abs * np.abs(e[..., 2:, 2:])).sum(axis=(-2, -1))
               + np.abs(e[..., 0, 1] / k[0]) + 2.0 * lam**2 + 0.25 * grad_sq)
    scales = {"f_equation": f_terms, "ricci_q": q_terms * geometry_lab._max_abs(q[0], 2)}
    return e, jet[0], reduction, scales


@pytest.mark.parametrize("perturb", [0.0, 0.1, -0.1])
@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("name", SURFACE)
def test_the_einstein_tensor_carries_the_second_pass_per_point(name, lam, perturb):
    ps = build(name, lam)
    if perturb:
        ps = _perturbed(ps, perturb)
    x = points(ps)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = score(ps, "einstein", x)["einstein.chart"]
        e, g, reduction, scales = reduction_from_e(ps, x)
        want = surface_reduction(ps, x)
    chart = geometry_lab._max_abs(e, 2) / geometry_lab._max_abs(g, 2)
    assert (np.abs(got - chart) <= 4.0 * EPS * chart).all()
    for key, scale in scales.items():
        assert (np.abs(reduction[key] - want[key]) <= 16.0 * EPS * scale).all(), key


# ---------------------------------------------------------------------------
# one Ricci tensor per block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SURFACE + ("minkowski", "heterotic-ppwave"))
def test_an_einstein_block_takes_one_ricci_and_one_christoffel(monkeypatch, name):
    counts = dict.fromkeys(("_ricci", "_christoffel", "_nabla"), 0)

    def counted(function):
        real = getattr(geometry_lab, function)

        def call(*args, **kwargs):
            counts[function] += 1
            return real(*args, **kwargs)
        return call

    for function in counts:
        monkeypatch.setattr(geometry_lab, function, counted(function))
    ps = build(name)
    score(ps, "einstein", points(ps, n=20))
    assert counts == {"_ricci": 1, "_christoffel": 1, "_nabla": 0}
