"""Residual evaluators for Lorentzian metric families on explicit charts.

Every chart and field hands out a jet: its value at the points with its
coordinate partials up to a given order, from the closed forms it was
given and centered differences (_fd_jet, one evaluation per distinct
stencil point) for the rest.  A MetricChart's jet is (g, dg, d2g).  On
it this module computes Christoffel symbols, curvature, covariant
derivatives of one-form fields and a chart-level Hodge dual, and scores
three first-order systems:

* parabolic Killing pairs: a nowhere-zero null one-form u and a unit
  spacelike l orthogonal to it, with nabla u = lam*(u (x) l - l (x) u)
  and nabla l = kappa (x) u + lam*(l (x) l - g) for some one-form kappa;
* their reduction to a surface triple (F, K, q2) for charts
  F dv^2 + 2 K dv du + q2, with the Einstein reduction of that family;
* the heterotic supersymmetry relations tying a dilaton one-form, a
  three-form flux and gauge curvature two-forms to the pair (u, l),
  and the flux Bianchi identity with its F wedge F source.

One-form fields keep their d components; other forms are (..., 16)
coefficient stacks over the coordinate coframe, bitmask-indexed as
Multivector.coeffs (bit i is dx^i), wedged through the metric-free
(4, 0) sign table.  Named presets supply closed-form charts for the
constant curvature half-space model, its two deformation families over
the hyperbolic half-plane and a plane-fronted heterotic background.

Points are stacks: charts, fields and residuals take x of shape
(..., d), the leading axes indexing sample points; one point is the
stack shape ().  _pointwise lifts a one-point callable (user callbacks
of walker-generic and MetricChart.from_callable, which thus see one
point).  A campaign block reads each field once: g^-1 and q^-1 are
inverted once, and a surface preset's F, K, q2 and s_frak are evaluated
once, to the highest order the check needs, for its chart, profile and
pair layers (_chart_jet).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _kernels

_FD_SCALE = 1e-5
POINT_BLOCK = 256  # sample points scored per stacked block in run_campaign
HALTON_BLOCK = 1024  # sample points whose digits _halton expands at once

# libm power and exp, elementwise: numpy's own power and exp loops can
# differ from libm in the last bit, and the closed forms keep the values
# of their one-point (math module) versions bit for bit
_pow = np.float_power
_exp_ufunc = np.frompyfunc(math.exp, 1, 1)


def _exp(v):
    return np.asarray(_exp_ufunc(v), dtype=float)


def _pointwise(fn):
    """Lift a callable of one point to (..., d) stacks, calling it point by point.

    A tuple result, such as a jet, is stacked part by part.
    """
    if fn is None:
        return None

    def stacked(x, rows):
        values = np.stack([np.asarray(row, dtype=float) for row in rows])
        return values.reshape(x.shape[:-1] + values.shape[1:])

    def lifted(x, *args):
        x = np.asarray(x, dtype=float)
        rows = [fn(p, *args) for p in x.reshape(-1, x.shape[-1])]
        if isinstance(rows[0], tuple):
            return tuple(stacked(x, part) for part in zip(*rows))
        return stacked(x, rows)

    return lifted


def _zeros(x, *shape):
    return np.zeros(np.shape(x)[:-1] + shape)


def _embed(x, shape, *entries):
    """Arrays of the given shape per point of x, zero but for the (index, value) entries."""
    out = _zeros(x, *shape)
    for index, value in entries:
        index = np.index_exp[index]
        out[(Ellipsis, *index) + np.index_exp[:] * (len(shape) - len(index))] = value
    return out


def _t(a, *perm):
    """Transpose the trailing len(perm) axes of a; the point axes stay in front."""
    lead = a.ndim - len(perm)
    return a.transpose(*range(lead), *(lead + p for p in perm))


def _max_abs(a, axes):
    """max |a| over the last `axes` (component) axes: one value per point."""
    return np.max(np.abs(a), axis=tuple(range(-axes, 0)))


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _pair(a, ginv, b):
    """a @ ginv @ b at every point."""
    return ((a[..., None, :] @ ginv) @ b[..., :, None])[..., 0, 0]


def _per_point(a, like):
    """Reshape point values a to broadcast against like, whose leading axes are the points."""
    a = np.asarray(a)
    return a.reshape(a.shape + (1,) * (np.ndim(like) - a.ndim))


def _fd_jet(f, x, order):
    """f at x with its centered-difference partials up to order (0, 1 or 2).

    The derivative axes follow the point axes.  Each distinct stencil
    point is evaluated once, by a call of f with x's own shape.
    """
    x = np.asarray(x, dtype=float)
    h = _FD_SCALE * (1.0 + np.abs(x))
    memo = {}

    def at(*steps):
        """f at x moved by sign * h[k] along each (k, sign) step."""
        if steps not in memo:
            p = x.copy()
            for k, sign in steps:
                p[..., k] += sign * h[..., k]
            memo[steps] = np.asarray(f(p), dtype=float)
        return memo[steps]

    f0 = at()
    n = x.shape[-1]
    jet = [f0]
    if order >= 1:
        rows = [(at((k, 1)) - at((k, -1))) / _per_point(2.0 * h[..., k], f0) for k in range(n)]
        jet.append(np.stack(rows, axis=x.ndim - 1))
    if order >= 2:
        out = np.zeros((n, n) + f0.shape)
        for m in range(n):
            out[m, m] = (at((m, 1)) - 2.0 * f0 + at((m, -1))) / _per_point(_pow(h[..., m], 2), f0)
            for k in range(m + 1, n):
                corners = at((m, 1), (k, 1)) - at((m, 1), (k, -1)) - at((m, -1), (k, 1))
                out[m, k] = out[k, m] = (corners + at((m, -1), (k, -1))) / _per_point(
                    4.0 * h[..., m] * h[..., k], f0)
        jet.append(np.moveaxis(out, (0, 1), (x.ndim - 1, x.ndim)))
    return tuple(jet)


def _jet(x, order, value, *closed):
    """value at x and its partials up to order: closed forms where given, else differences."""
    x = np.asarray(x, dtype=float)
    closed = closed[:order]
    if all(d is not None for d in closed):
        return tuple(np.asarray(f(x), dtype=float) for f in (value, *closed))
    fd = _fd_jet(value, x, order)
    return fd[:1] + tuple(fd[i] if d is None else np.asarray(d(x), dtype=float)
                          for i, d in enumerate(closed, 1))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar function of a chart point, with optional closed-form partials."""

    value: Callable
    grad: Callable | None = None
    hess: Callable | None = None

    def jet(self, x, order):
        """(value, gradient[, Hessian]) at x; the Hessian of plain coordinate partials."""
        return _jet(x, order, self.value, self.grad, self.hess)


@dataclass(frozen=True, eq=False)
class OneFormField:
    """One-form with components in chart order; jac rows are directions."""

    value: Callable
    jac: Callable | None = None

    def jet(self, x):
        # (omega, J) with J[i, j] = d_i omega_j
        return _jet(x, 1, self.value, self.jac)


@dataclass(frozen=True, eq=False)
class MetricChart:
    """Pseudo-Riemannian metric on a coordinate chart.

    jet(x, order) gives g followed, up to order, by dg[m] = d_m g and
    d2g[m, n] = d_m d_n g.  provenance records whether the derivatives are
    closed forms or differences; in_domain restricts the chart, if given.
    """

    jet: Callable
    provenance: str = "analytic"
    in_domain: Callable | None = None

    @classmethod
    def closed(cls, g, dg, d2g, **kw):
        """Chart of closed-form callables for g and its first and second partials."""
        return cls(lambda x, order: _jet(x, order, g, dg, d2g), **kw)

    @classmethod
    def from_callable(cls, g, in_domain=None):
        """Chart of a one-point metric callable, derivatives by centered differences."""
        g = _pointwise(g)
        return cls(lambda x, order: _fd_jet(g, x, order), provenance="finite-difference",
                   in_domain=_pointwise(in_domain))

    def g(self, x):
        return self.jet(x, 0)[0]

    def dg(self, x):
        return self.jet(x, 1)[1]

    def d2g(self, x):
        return self.jet(x, 2)[2]

    def contains(self, x):
        """Whether every point of the stack x lies in the chart domain."""
        return self.in_domain is None or bool(np.all(self.in_domain(x)))


def _braces(dg):
    return _t(dg, 1, 0, 2) + _t(dg, 1, 2, 0) - dg


def _chart_jet(chart, x, order, walker=None, k_order=0):
    """The chart's jet to order at x, checked inside its domain, and g^-1.

    With walker given, chart is walker_chart(walker), built from one read
    of F, q2 (to order) and K (to k_order), and those three jets follow.
    """
    x = np.asarray(x, dtype=float)
    if not chart.contains(x):
        raise ValueError("point lies outside the chart domain")
    jets = (chart.jet(x, order),) if walker is None else _walker_jets(walker, x, order, k_order)
    return (jets[0], np.linalg.inv(jets[0][0])) + jets[1:]


def _christoffel(jet, ginv):
    """Gamma from a chart jet (g, dg, ...) and g^-1."""
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, _braces(jet[1]))


def christoffel(chart, x):
    """Levi-Civita symbols, gamma[..., k, i, j] = Gamma^k_{ij}."""
    return _christoffel(*_chart_jet(chart, x, 1))


def _riemann(jet, ginv):
    """R^r_{smn} from a second-order chart jet (g, dg, d2g) and g^-1."""
    _, dg, d2g = jet
    braces = _braces(dg)
    dbraces = _t(d2g, 0, 2, 1, 3) + _t(d2g, 0, 2, 3, 1) - d2g
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, braces)
    dgamma = 0.5 * np.einsum("...mkl,...lij->...mkij", dginv, braces)
    dgamma += 0.5 * np.einsum("...kl,...mlij->...mkij", ginv, dbraces)
    t = np.einsum("...mrns->...rsmn", dgamma)
    gg = np.einsum("...rml,...lns->...rsmn", gamma, gamma)
    return t - _t(t, 0, 1, 3, 2) + gg - _t(gg, 0, 1, 3, 2)


def riemann(chart, x):
    """Curvature tensor R[..., r, s, m, n] = R^r_{smn}, first index raised."""
    return _riemann(*_chart_jet(chart, x, 2))


def _ricci(jet, ginv):
    return np.einsum("...rsrn->...sn", _riemann(jet, ginv))


def ricci(chart, x):
    return _ricci(*_chart_jet(chart, x, 2))


def _nabla(gamma, jet):
    """nabla omega from the Christoffel symbols and the jet (omega, d omega)."""
    return jet[1] - np.einsum("...kij,...k->...ij", gamma, jet[0])


def covariant_derivative_oneform(chart, omega, x):
    """(nabla omega)[..., i, j] = d_i omega_j - Gamma^k_{ij} omega_k."""
    return _nabla(christoffel(chart, x), omega.jet(x))


_COFRAME = 1 << np.arange(4)  # the masks of dx^0, ..., dx^3


def _wedge(a, b):
    """a ^ b for coefficient stacks: out[K] = sum_I a[I] wedge_sign[I, K] b[I xor K].

    A left factor of 4 components is a one-form, and only its coframe
    rows I = dx^0, ..., dx^3 are gathered.
    """
    # the wedge sign does not depend on the metric: one table serves every chart
    t = _kernels.get_tables(4, 0)
    rows = _COFRAME if a.shape[-1] == 4 else np.s_[:]
    return np.einsum("...i,ik,...ik->...k", a, t.wedge_sign[rows], b[..., t.xor[rows]])


def _one(omega):
    """The coefficient stack of the one-form with components omega (..., 4)."""
    out = _zeros(omega, 16)
    out[..., _COFRAME] = omega
    return out


def _two_tensor(c):
    """The antisymmetric T[..., i, j] of the two-form stack c = sum_{i<j} T_ij dx^i ^ dx^j."""
    pairs = _COFRAME[:, None] | _COFRAME
    # dx^i ^ dx^j is sign * dx^{pairs[i, j]}; i = j gives no two-form
    sign = _kernels.get_tables(4, 0).wedge_sign[_COFRAME[:, None], pairs] * (1.0 - np.eye(4))
    return c[..., pairs] * sign


def _hodge(g, ginv):
    """The Hodge dual at the points of g, as a map of coefficient stacks.

    Built once from g and g^-1: the raised dx^I is the wedge of the g^-1
    columns in I, and the dual of dx^I is sqrt|det g| wedge_sign[I, 15]
    dx^(I^c), the orientation being dx^0 ^ ... ^ dx^3.
    """
    t = _kernels.get_tables(4, 0)
    # raised[..., I, :] is the raised dx^I, built up grade by grade from
    # the lowest covector of I and the already raised rest
    raised = np.zeros(g.shape[:-2] + (16, 16))
    raised[..., 0, 0] = 1.0
    for k in range(1, 5):
        masks = np.flatnonzero(t.grade == k)
        low = masks & -masks
        columns = np.swapaxes(ginv[..., :, np.log2(low).astype(int)], -1, -2)
        raised[..., masks, :] = _wedge(columns, raised[..., masks ^ low, :])
    complement = 15 ^ np.arange(16)
    root = np.sqrt(np.abs(np.linalg.det(g)))
    dual = (root[..., None, None] * t.wedge_sign[complement, 15][:, None]) * np.swapaxes(
        raised[..., complement], -1, -2)
    return lambda form: (dual @ np.asarray(form, dtype=float)[..., None])[..., 0]


def hodge_star_chart(chart, x, omega):
    """Hodge dual at x of omega, a (..., 16) coefficient stack over the coordinate coframe.

    The point axes of x come first.  The orientation is dx^0 ^ ... ^ dx^3,
    so on an orthonormal chart of signature (3, 1) this is ka_core.hodge_star.
    """
    g = chart.g(np.asarray(x, dtype=float))
    return _hodge(g, np.linalg.inv(g))(omega)


# ---------------------------------------------------------------------------
# parabolic Killing pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KillingData:
    """Candidate pair of one-form fields with rate lam.

    u must be nowhere-zero null, l unit spacelike and orthogonal to u.
    kappa is the shift one-form of the l equation, fitted if absent.
    """

    u: OneFormField
    l: OneFormField
    lam: float
    kappa: OneFormField | None = None


@dataclass(frozen=True, eq=False)
class KillingResiduals:
    """Residuals per point (kappa_hat a one-form); parabolic scores the pair invariants."""

    r_u: float | np.ndarray
    r_l: float | np.ndarray
    kappa_hat: np.ndarray
    parabolic: float | np.ndarray


def _parabolic_violation(ginv, u, l):
    scale = _pow(np.maximum(np.maximum(1.0, _max_abs(u, 1)), _max_abs(l, 1)), 2)
    uu, ll, ul = _pair(u, ginv, u), _pair(l, ginv, l), _pair(u, ginv, l)
    return np.maximum(np.maximum(np.abs(uu), np.abs(ll - 1.0)), np.abs(ul)) / scale


def _shift(kappa, defect, u, x):
    """The shift one-form: kappa's value, or each defect row projected onto u."""
    if kappa is not None:
        return np.asarray(kappa.value(x), dtype=float)
    return (defect @ u[..., :, None])[..., 0] / (u[..., None, :] @ u[..., :, None])[..., 0]


def killing_pair_residual(chart, kd, x, invariant_tol=1e-6):
    """Residuals of the pair system at x.

    r_u scores nabla u = lam*(u (x) l - l (x) u) and r_l scores nabla l =
    kappa (x) u + lam*(l (x) l - g), kappa from kd or fitted by projecting
    each defect row onto u.  Pair invariants beyond invariant_tol raise;
    pass inf to score degenerate candidates anyway.
    """
    x = np.asarray(x, dtype=float)
    jet, ginv = _chart_jet(chart, x, 1)
    return _pair_residuals(jet, ginv, kd.u.jet(x), kd.l.jet(x), kd.lam,
                           lambda defect, u: _shift(kd.kappa, defect, u, x), invariant_tol)


def _pair_residuals(jet, ginv, u_jet, l_jet, lam, shift, invariant_tol):
    """killing_pair_residual from the chart jet, g^-1, the u and l jets and shift(defect, u)."""
    g, u, l = jet[0], u_jet[0], l_jet[0]
    if np.any(_max_abs(u, 1) <= 1e-12):
        raise ValueError("u vanishes at the sample point")
    violation = _parabolic_violation(ginv, u, l)
    if np.any(violation > invariant_tol):
        first = np.extract(violation > invariant_tol, violation)[0]
        raise ValueError(f"pair invariants violated by {first:.3e}")
    gamma = _christoffel(jet, ginv)
    r_u = _max_abs(_nabla(gamma, u_jet) - lam * (_outer(u, l) - _outer(l, u)), 2)
    defect = _nabla(gamma, l_jet) - lam * (_outer(l, l) - g)
    kappa_hat = shift(defect, u)
    r_l = _max_abs(defect - _outer(kappa_hat, u), 2)
    return KillingResiduals(r_u=r_u, r_l=r_l, kappa_hat=kappa_hat, parabolic=violation)


# ---------------------------------------------------------------------------
# surface reduction for F dv^2 + 2 K dv du + q2 charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WalkerData:
    """Surface data for the chart F dv^2 + 2 K dv du + q2.

    F and K are profiles of the surface point, q2 the surface metric and
    s_frak the optional v-component of l in the gauge where the shift is
    d(s_frak)/K; walker_chart and walker_killing_data build from it.
    """

    F: ScalarField
    K: ScalarField
    q2: MetricChart
    lam: float
    s_frak: ScalarField | None = None

    def __post_init__(self):
        if self.lam == 0.0:
            raise ValueError("lam must be nonzero")


@dataclass(frozen=True, eq=False)
class WalkerResiduals:
    """Residuals and the imaginary-gauge flag, one value per point."""

    hessian: float | np.ndarray
    laplacian: float | np.ndarray
    s_v: float | np.ndarray
    gauge_imaginary: bool | np.ndarray


@dataclass(frozen=True, eq=False)
class EinsteinResiduals:
    f_equation: float | np.ndarray
    ricci_q: float | np.ndarray


def walker_chart(wd):
    """Assemble the four-dimensional chart; coordinates (v, u, x, y)."""
    q2 = wd.q2
    closed_form = q2.provenance == "analytic" and None not in (
        wd.F.grad, wd.F.hess, wd.K.grad, wd.K.hess)
    domain = None if q2.in_domain is None else (lambda x: q2.in_domain(_surface(x)))
    return MetricChart(lambda x, order: _walker_jets(wd, x, order, order)[0],
                       provenance="analytic" if closed_form else "finite-difference",
                       in_domain=domain)


def _walker_jets(wd, x, order, k_order):
    """The chart jet to order at chart points x and the F, K (to k_order) and q2 jets it reads."""
    s = _surface(x)
    f, k, q = wd.F.jet(s, order), wd.K.jet(s, max(order, k_order)), wd.q2.jet(s, order)
    out = []
    for n in range(order + 1):
        # part n holds the partials along n leading surface axes; v and u are flat
        lead = (np.s_[2:],) * n
        out.append(_embed(s, (4,) * (n + 2), (lead + (0, 0), f[n]), (lead + (0, 1), k[n]),
                          (lead + (1, 0), k[n]), (lead + (np.s_[2:], np.s_[2:]), q[n])))
    return tuple(out), f, k, q


def _surface(x):
    """The surface coordinates (x, y) of chart points (v, u, x, y)."""
    return np.asarray(x, dtype=float)[..., 2:]


def _nonzero(k):
    if np.any(np.abs(k[0]) < 1e-12):
        raise ValueError("profile K must be nowhere zero")
    return k


def _surface_data(wd, f, k, q, qinv):
    """Gamma(q), the pairing q^-1(dK, dF) and the gauge square F - q^-1(dK, dF)/(4 lam^2 K)."""
    pair_kf = _pair(k[1], qinv, f[1])
    square = f[0] - pair_kf / (4.0 * wd.lam**2 * k[0])
    return _christoffel(q, qinv), pair_kf, square


def walker_residuals(wd, s):
    """Profile equations of the pair system at a surface point.

    hessian and laplacian score the second-order K equations.  The gauge
    square fixes s_frak up to sign; without s_frak a negative square is
    flagged rather than failed and the first-order residuals are skipped.
    With s_frak only the v-direction equation is nontrivial in this
    gauge, so s_v is the one first-order residual.
    """
    s = np.asarray(s, dtype=float)
    lam = wd.lam
    # K first, checked nowhere zero, then q2 in its domain, then F
    k, (q, qinv), f = _nonzero(wd.K.jet(s, 2)), _chart_jet(wd.q2, s, 1), wd.F.jet(s, 1)
    gamma, pair_kf, square = _surface_data(wd, f, k, q, qinv)
    K, d_k = k[0], k[1]
    hess_k = _nabla(gamma, k[1:])
    k2 = K[..., None, None]
    hess_res = _max_abs(hess_k - _outer(d_k, d_k) / (2.0 * k2) - 2.0 * lam**2 * k2 * q[0], 2)
    lap_res = np.abs(np.trace(qinv @ hess_k, axis1=-2, axis2=-1) - 6.0 * lam**2 * K)
    if wd.s_frak is None:
        return WalkerResiduals(hess_res, lap_res, np.zeros_like(K), square < 0.0)
    s_v = np.abs(pair_kf / (4.0 * lam * K) - lam * (f[0] - _pow(wd.s_frak.value(s), 2)))
    return WalkerResiduals(hess_res, lap_res, s_v, np.zeros(K.shape, dtype=bool))


def einstein_residual(wd, s):
    """Einstein reduction: the F equation and Ric(q2) = -lam^2 q2."""
    k, (q, qinv) = _nonzero(wd.K.jet(s, 1)), _chart_jet(wd.q2, s, 2)
    return _einstein(wd, wd.F.jet(s, 2), k, q, qinv)


def _einstein(wd, f, k, q, qinv):
    """einstein_residual from the F, K and q2 jets (to orders 2, 1 and 2) and q^-1."""
    gamma, pair_kf, _ = _surface_data(wd, f, k, q, qinv)
    trace = np.trace(qinv @ _nabla(gamma, f[1:]), axis1=-2, axis2=-1)
    f_res = np.abs(trace - pair_kf / k[0] - 2.0 * wd.lam**2 * f[0])
    ric_res = _max_abs(_ricci(q, qinv) + wd.lam**2 * q[0], 2)
    return EinsteinResiduals(f_equation=f_res, ricci_q=ric_res)


def _surface_pair(lam, x, k, sf):
    """(u, du), (l, dl) and kappa at chart points x, from the 2-jet k of K and 1-jet sf of s_frak.

    u = K dv, l = s_frak dv - dK/(2 lam K), d_i l_v = d_i s_frak, d_i l_a =
    (d_i K d_a K / K - d_i d_a K)/(2 lam K) with K's gradient never
    squared, and kappa = d(s_frak)/K on the surface components.
    """
    K = k[0][..., None]
    d_surface = (_outer(k[1] / K, k[1]) - k[2]) / (2.0 * lam * K[..., None])
    u = (_embed(x, (4,), (0, k[0])), _embed(x, (4, 4), (np.s_[2:, 0], k[1])))
    l = (_embed(x, (4,), (0, sf[0]), (np.s_[2:], -k[1] / (2.0 * lam * K))),
         _embed(x, (4, 4), (np.s_[2:, 0], sf[1]), (np.s_[2:, 2:], d_surface)))
    return u, l, _embed(x, (4,), (np.s_[2:], sf[1] / K))


def walker_killing_data(wd):
    """The pair (u, l) and shift kappa of the surface data (_surface_pair), on the assembled chart.

    With s_frak given, the pair reads only the 2-jet of K and the 1-jet
    of s_frak.  Without it the gauge component is the nonnegative root of
    the gauge square, l is differenced and kappa is left to the fit.
    """
    lam, s_frak = wd.lam, wd.s_frak

    def pair(x):
        s = _surface(x)
        if s_frak is not None:
            return _surface_pair(lam, x, wd.K.jet(s, 2), s_frak.jet(s, 1))
        k, (q, qinv), f = _nonzero(wd.K.jet(s, 2)), _chart_jet(wd.q2, s, 1), wd.F.jet(s, 1)
        gauge = np.sqrt(np.maximum(_surface_data(wd, f, k, q, qinv)[2], 0.0))
        return _surface_pair(lam, x, k, (gauge, _zeros(s, 2)))

    gauged = s_frak is not None
    return KillingData(
        u=OneFormField(lambda x: pair(x)[0][0], jac=lambda x: pair(x)[0][1]),
        l=OneFormField(lambda x: pair(x)[1][0], jac=(lambda x: pair(x)[1][1]) if gauged else None),
        lam=lam,
        kappa=OneFormField(lambda x: pair(x)[2]) if gauged else None,
    )


# ---------------------------------------------------------------------------
# heterotic supersymmetry residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HeteroticConfig:
    """Background fields entering the supersymmetry relations.

    varphi is the dilaton one-form (required closed), H the three-form
    flux (None for zero), FA the gauge curvatures and signs their
    coefficients in the F wedge F source of the Bianchi identity.  H and
    each FA are callables returning (..., 16) coefficient stacks.
    """

    chart: MetricChart
    varphi: OneFormField
    H: Callable | None = None
    FA: Sequence[Callable] = ()
    signs: Sequence[float] = ()


def _gaugino_fit(hc, ginv, u, x):
    worst = np.zeros(u.shape[:-1])
    if not hc.FA:
        return worst
    c = (ginv @ u[..., :, None])[..., 0]
    _, _, vt = np.linalg.svd(c[..., None, :])
    null_basis = _t(vt[..., 1:, :], 1, 0)
    # column j is u ^ dx^j
    cols = _t(_wedge(u[..., None, :], _one(np.eye(4))), 1, 0)
    design = cols @ null_basis
    # least squares by the pseudoinverse, with lstsq's default cut-off
    solve = np.linalg.pinv(design, rcond=16 * np.finfo(float).eps)
    for curvature in hc.FA:
        target = np.asarray(curvature(x), dtype=float)
        fit = _max_abs((design @ (solve @ target[..., None]))[..., 0] - target, 1)
        worst = np.maximum(worst, fit)
    return worst


def _coclosed_residual(hc, x, g):
    """|div rho| at x from differences of sqrt|det g| g^-1 rho; g is the metric at x."""
    if hc.H is None:
        return _zeros(x)
    chart = hc.chart

    def density(p):
        g = chart.g(p)
        ginv = np.linalg.inv(g)
        rho = _hodge(g, ginv)(hc.H(p))[..., _COFRAME]
        root = np.sqrt(np.abs(np.linalg.det(g)))
        return root[..., None] * (ginv @ rho[..., None])[..., 0]

    divergence = np.trace(_fd_jet(density, x, 1)[1], axis1=-2, axis2=-1)
    return np.abs(divergence) / np.sqrt(np.abs(np.linalg.det(g)))


def heterotic_susy_residuals(hc, kd, x):
    """All supersymmetry relations at x, as an ordered name -> value map.

    rho is the one-form dual of the flux.  The star identities, pairings,
    gaugino splitting, both derivative equations (the shift from kd or
    fitted), coclosedness of rho and closedness of the dilaton one-form
    are each scored in the max norm.
    """
    x = np.asarray(x, dtype=float)
    chart = hc.chart
    jet, ginv = _chart_jet(chart, x, 1)
    star = _hodge(jet[0], ginv)
    u_jet, l_jet, phi_jet = kd.u.jet(x), kd.l.jet(x), hc.varphi.jet(x)
    u, l, phi = u_jet[0], l_jet[0], phi_jet[0]
    rho = _zeros(x, 4) if hc.H is None else star(hc.H(x))[..., _COFRAME]
    u_f, l_f = _one(u), _one(l)
    res = {}
    res["star_identity_u"] = _max_abs(_wedge(phi, u_f) - star(_wedge(rho, u_f)), 1)
    res["star_identity_ul"] = _max_abs(
        _wedge(_wedge(phi, u_f), l_f) + _pair(rho, ginv, l)[..., None] * star(u_f), 1
    )
    res["star_identity_l"] = _max_abs(
        star(_wedge(_wedge(l, u_f), _one(rho))) + _pair(phi, ginv, l)[..., None] * u_f, 1
    )
    res["u_phi_orthogonal"] = np.abs(_pair(u, ginv, phi))
    res["u_rho_orthogonal"] = np.abs(_pair(u, ginv, rho))
    res["rho_phi_orthogonal"] = np.abs(_pair(rho, ginv, phi))
    res["gaugino_fit"] = _gaugino_fit(hc, ginv, u, x)
    gamma = _christoffel(jet, ginv)
    res["grad_u"] = _max_abs(_nabla(gamma, u_jet) - 0.5 * (_outer(u, phi) - _outer(phi, u)), 2)
    defect = _nabla(gamma, l_jet) - 0.5 * _two_tensor(star(_wedge(rho, l_f)))
    kappa = _shift(kd.kappa, defect, u, x)
    res["grad_l"] = _max_abs(defect - _outer(kappa, u), 2)
    res["rho_coclosed"] = _coclosed_residual(hc, x, jet[0])
    jac = phi_jet[1]
    res["dphi_closed"] = _max_abs(jac - _t(jac, 1, 0), 2)
    return res


def modified_bianchi_residual(hc, x):
    """Max norm of dH - sum_a signs_a * F_a ^ F_a at x, dH by differences."""
    x = np.asarray(x, dtype=float)
    d_h = _zeros(x, 16)
    if hc.H is not None:
        # dH = sum_i dx^i ^ d_i H
        d_h = _wedge(np.eye(4), _fd_jet(hc.H, x, 1)[1]).sum(axis=-2)
    source = 0.0
    for sign, curvature in zip(hc.signs, hc.FA):
        two_form = np.asarray(curvature(x), dtype=float)
        source = source + sign * _wedge(two_form, two_form)
    return _max_abs(d_h - source, 1)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Preset:
    """Named chart family with the field data its campaigns need."""

    name: str
    params: dict
    chart: MetricChart
    lam: float
    sample_box: tuple
    killing: KillingData | None = None
    walker: WalkerData | None = None  # chart, killing: its walker_chart, walker_killing_data
    heterotic: HeteroticConfig | None = None


_BOX_FLAT = ((-2.0, 2.0),) * 4
_BOX_HALF = ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0), (0.3, 3.0))
_BOX_DEFORMED = ((-2.0, 2.0), (-2.0, 2.0), (-1.5, 1.5), (0.3, 3.0))


def _check_keys(name, params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise ValueError(f"unknown parameters for {name}: {sorted(extra)}")


def _finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _positive(name, value):
    value = _finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive")
    return value


def _rate(params):
    """The preset's lam: positive, with lam^2 and 1/lam^2 finite and nonzero."""
    lam = _positive("lam", params.get("lam", 1.0))
    square = lam * lam
    if square == 0.0 or not math.isfinite(square) or not math.isfinite(1.0 / square):
        raise ValueError(f"lam {lam!r} is out of range: lam^2 or 1/lam^2 over- or underflows")
    return lam


def _coefficients(params, default):
    a = tuple(_finite("a", v) for v in params.get("a", default))
    if len(a) != 4:
        raise ValueError("a must have four entries")
    return a


def _poincare_half_plane(lam):
    """Hyperbolic half-plane metric delta/(lam*y)^2 with closed derivatives."""

    def conformal(s, factor, power):
        return factor * np.eye(2) / (lam**2 * _pow(s[..., 1], power))[..., None, None]

    return MetricChart.closed(
        lambda s: np.eye(2) / _pow(lam * s[..., 1], 2)[..., None, None],
        lambda s: _embed(s, (2, 2, 2), (1, conformal(s, -2.0, 3))),
        lambda s: _embed(s, (2, 2, 2, 2), ((1, 1), conformal(s, 6.0, 4))),
        in_domain=lambda s: s[..., 1] > 0.0,
    )


def _inverse_square_profile(c0):
    return ScalarField(
        value=lambda s: c0 / _pow(s[..., 1], 2),
        grad=lambda s: _embed(s, (2,), (1, -2.0 * c0 / _pow(s[..., 1], 3))),
        hess=lambda s: _embed(s, (2, 2), ((1, 1), 6.0 * c0 / _pow(s[..., 1], 4))),
    )


_ZERO_SURFACE = ScalarField(lambda s: _zeros(s), lambda s: _zeros(s, 2), lambda s: _zeros(s, 2, 2))


def _constant(vector):
    """One-form field with the same components at every point."""
    return OneFormField(lambda x: _embed(x, (4,), (slice(None), vector)), lambda x: _zeros(x, 4, 4))


def _preset_minkowski(params):
    _check_keys("minkowski", params, set())
    eta = np.diag([1.0, 1.0, 1.0, -1.0])
    chart = MetricChart.closed(
        lambda x: np.broadcast_to(eta, np.shape(x)[:-1] + (4, 4)).copy(),
        lambda x: _zeros(x, 4, 4, 4),
        lambda x: _zeros(x, 4, 4, 4, 4),
    )
    kd = KillingData(u=_constant([1.0, 0.0, 0.0, 1.0]), l=_constant([0.0, 1.0, 0.0, 0.0]), lam=0.0)
    return Preset(name="minkowski", params={}, chart=chart, lam=0.0, sample_box=_BOX_FLAT,
                  killing=kd)


def _preset_ads4(params):
    _check_keys("ads4", params, {"lam"})
    lam = _rate(params)
    profile = _inverse_square_profile(1.0 / lam**2)
    wd = WalkerData(F=profile, K=profile, q2=_poincare_half_plane(lam), lam=lam,
                    s_frak=_ZERO_SURFACE)
    return Preset(
        name="ads4", params={"lam": lam}, chart=walker_chart(wd), lam=lam,
        sample_box=_BOX_HALF, killing=walker_killing_data(wd), walker=wd,
    )


def _preset_poly(params):
    _check_keys("ads4-deformed-poly", params, {"lam", "a"})
    lam = _rate(params)
    a1, a2, a3, a4 = _coefficients(params, (1.0, 0.5, 0.2, 0.1))

    def linear(x_coord):
        return a1 + a2 * x_coord

    def f_hess(s):
        cross = a2 * (a3 - 2.0 * a4 / _pow(s[..., 1], 3))
        return _embed(s, (2, 2), ((0, 1), cross), ((1, 0), cross),
                      ((1, 1), linear(s[..., 0]) * 6.0 * a4 / _pow(s[..., 1], 4)))

    profile_f = ScalarField(
        value=lambda s: linear(s[..., 0]) * (a3 * s[..., 1] + a4 / _pow(s[..., 1], 2)),
        grad=lambda s: np.stack([
            a2 * (a3 * s[..., 1] + a4 / _pow(s[..., 1], 2)),
            linear(s[..., 0]) * (a3 - 2.0 * a4 / _pow(s[..., 1], 3)),
        ], axis=-1),
        hess=f_hess,
    )
    box = _BOX_DEFORMED
    # the gauge square is 1.5*a3*y*(a1 + a2*x); attach pair data only
    # when it stays safely positive on the sample box
    gated = a3 >= 0.0 and min(linear(box[2][0]), linear(box[2][1])) >= 0.05

    def gauge_val(s):
        return np.sqrt(1.5 * a3 * s[..., 1] * linear(s[..., 0]))

    def gauge_grad(s):
        sv = gauge_val(s)
        return np.stack([sv * a2 / (2.0 * linear(s[..., 0])), sv / (2.0 * s[..., 1])], axis=-1)

    s_field = ScalarField(value=gauge_val, grad=gauge_grad) if gated else None
    wd = WalkerData(F=profile_f, K=_inverse_square_profile(0.5), q2=_poincare_half_plane(lam),
                    lam=lam, s_frak=s_field)
    return Preset(
        name="ads4-deformed-poly", params={"lam": lam, "a": [a1, a2, a3, a4]},
        chart=walker_chart(wd), lam=lam, sample_box=box,
        killing=walker_killing_data(wd) if gated else None, walker=wd,
    )


# Taylor coefficients of j1(z) / z in powers of z^2:
# (-1/2)^k / (k! (2k + 3)!!), enough terms for full precision below the cut-off
_J1_SERIES = tuple(
    (-0.5) ** k / (math.factorial(k) * math.prod(range(3, 2 * k + 4, 2))) for k in range(7)
)
_J1_SERIES_CUTOFF = 0.5


def _spherical_bessel_1(z):
    """(j1, j1', y1, y1') at z != 0, in closed form (A&S 10.1.11-12).

    Below the cut-off j1 comes from its series: the closed form
    sin z / z^2 - cos z / z loses about log10(3 / z^2) digits there to
    cancellation. The derivatives use f1' = f0 - 2 f1 / z.
    """
    z = np.asarray(z, dtype=float)
    sin, cos = np.sin(z), np.cos(z)
    j0, y0 = sin / z, -cos / z
    small = np.abs(z) < _J1_SERIES_CUTOFF
    zs = np.where(small, z, 0.0)  # the series only where it is used, so nothing overflows
    z2 = zs * zs
    acc = 0.0
    for coef in reversed(_J1_SERIES):
        acc = acc * z2 + coef
    j1 = np.where(small, zs * acc, (j0 - cos) / z)
    y1 = (y0 - sin) / z
    return j1, j0 - 2.0 * j1 / z, y1, y0 - 2.0 * y1 / z


def _preset_bessel(params):
    _check_keys("ads4-deformed-bessel", params, {"lam", "c", "a"})
    lam = _rate(params)
    c = _positive("c", params.get("c", 2.0))
    a1, a2, a3, a4 = _coefficients(params, (1.0, 1.0, 1.0, 0.0))

    def radial(z):
        j1, j1p, y1, y1p = _spherical_bessel_1(z)
        h = a3 * y1 + a4 * j1
        hp = a3 * y1p + a4 * j1p
        # order-one spherical equation gives the second derivative
        hpp = -(2.0 / z) * hp - (1.0 - 2.0 / _pow(z, 2)) * h
        return h, hp, hpp

    def split(x_coord):
        grow = a1 * _exp(c * x_coord)
        decay = a2 * _exp(-c * x_coord)
        return grow + decay, grow - decay

    def f_val(s):
        h, _, _ = radial(c * s[..., 1])
        return split(s[..., 0])[0] * h

    def f_grad(s):
        even, odd = split(s[..., 0])
        h, hp, _ = radial(c * s[..., 1])
        return np.stack([c * odd * h, c * even * hp], axis=-1)

    def f_hess(s):
        even, odd = split(s[..., 0])
        h, hp, hpp = radial(c * s[..., 1])
        cross = c**2 * odd * hp
        return _embed(s, (2, 2), ((0, 0), c**2 * even * h), ((0, 1), cross), ((1, 0), cross),
                      ((1, 1), c**2 * even * hpp))

    wd = WalkerData(
        F=ScalarField(value=f_val, grad=f_grad, hess=f_hess),
        K=_inverse_square_profile(0.5),
        q2=_poincare_half_plane(lam), lam=lam,
    )
    return Preset(
        name="ads4-deformed-bessel",
        params={"lam": lam, "c": c, "a": [a1, a2, a3, a4]},
        chart=walker_chart(wd), lam=lam, sample_box=_BOX_DEFORMED, walker=wd,
    )


def _preset_walker_generic(params):
    _check_keys("walker-generic", params, {"lam", "F", "K", "q2", "s_frak"})
    lam = _rate(params)
    if not all(key in params for key in ("F", "K", "q2")):
        raise ValueError(
            "walker-generic requires Python callbacks for F, K, and q2; "
            "it cannot be built from serialized parameters"
        )

    # callbacks take one surface point; lift them to stacks point by point
    def as_field(obj):
        if isinstance(obj, ScalarField):
            return ScalarField(_pointwise(obj.value), _pointwise(obj.grad), _pointwise(obj.hess))
        return ScalarField(_pointwise(obj))

    q2 = params["q2"]
    if isinstance(q2, MetricChart):
        q2 = replace(q2, jet=_pointwise(q2.jet), in_domain=_pointwise(q2.in_domain))
    else:
        q2 = MetricChart.from_callable(q2)
    s_frak = params.get("s_frak")
    if s_frak is not None:
        s_frak = as_field(s_frak)
    wd = WalkerData(F=as_field(params["F"]), K=as_field(params["K"]), q2=q2, lam=lam,
                    s_frak=s_frak)
    return Preset(
        name="walker-generic", params={"lam": lam}, chart=walker_chart(wd),
        lam=lam, sample_box=_BOX_HALF, walker=wd,
    )


def _preset_ppwave(params):
    _check_keys("heterotic-ppwave", params, {"amp", "q0", "omega"})
    amp = _finite("amp", params.get("amp", 0.3))
    q0 = np.asarray(params.get("q0", np.eye(2)), dtype=float)
    if q0.shape != (2, 2) or not np.all(np.isfinite(q0)) or np.max(np.abs(q0 - q0.T)) > 1e-12:
        raise ValueError("q0 must be a symmetric 2x2 matrix")
    if q0[0, 0] <= 0.0 or np.linalg.det(q0) <= 0.0:
        raise ValueError("q0 must be positive definite")
    omega = tuple(_finite("omega", w) for w in params.get("omega", (0.5, 0.3, 0.0)))
    if len(omega) != 3:
        raise ValueError("omega must have three coefficients")

    def phase(v):
        return amp * (1.0 - np.cos(v))

    def rate(v):
        return amp * np.sin(v)

    def conformal(x, factor):
        """factor(v) * exp(2 phase(v)) * q0 in the transverse block, per point."""
        return (factor * _exp(2.0 * phase(x[..., 0])))[..., None, None] * q0

    def d2g(x):
        v = x[..., 0]
        factor = 2.0 * amp * np.cos(v) + 4.0 * _pow(rate(v), 2)
        return _embed(x, (4, 4, 4, 4), (np.s_[0, 0, 2:, 2:], conformal(x, factor)))

    chart = MetricChart.closed(
        lambda x: _embed(x, (4, 4), ((0, 1), 1), ((1, 0), 1), (np.s_[2:, 2:], conformal(x, 1.0))),
        lambda x: _embed(x, (4, 4, 4), (np.s_[0, 2:, 2:], conformal(x, 2.0 * rate(x[..., 0])))),
        d2g,
    )
    transverse = q0[:, 0] / math.sqrt(q0[0, 0])

    def l_jac(x):
        v = x[..., 0]
        return _embed(x, (4, 4), (np.s_[0, 2:], (rate(v) * _exp(phase(v)))[..., None] * transverse))

    kd = KillingData(
        u=_constant([1.0, 0.0, 0.0, 0.0]),
        l=OneFormField(
            lambda x: _embed(x, (4,), (np.s_[2:], _exp(phase(x[..., 0]))[..., None] * transverse)),
            jac=l_jac,
        ),
        lam=0.0,
    )

    def dilaton_val(x):
        v = x[..., 0]
        return _embed(x, (4,), (0, omega[0] + omega[1] * v + omega[2] * _pow(v, 2)))

    def dilaton_jac(x):
        return _embed(x, (4, 4), ((0, 0), omega[1] + 2.0 * omega[2] * x[..., 0]))

    hc = HeteroticConfig(
        chart=chart,
        varphi=OneFormField(dilaton_val, jac=dilaton_jac),
        H=None, FA=(), signs=(),
    )
    return Preset(
        name="heterotic-ppwave",
        params={"amp": amp, "q0": q0.tolist(), "omega": list(omega)},
        chart=chart, lam=0.0, sample_box=_BOX_FLAT, killing=kd, heterotic=hc,
    )


_PRESET_BUILDERS = {
    "minkowski": _preset_minkowski,
    "ads4": _preset_ads4,
    "ads4-deformed-poly": _preset_poly,
    "ads4-deformed-bessel": _preset_bessel,
    "walker-generic": _preset_walker_generic,
    "heterotic-ppwave": _preset_ppwave,
}


def preset(name, params=None):
    """Build a named chart family with its attached residual data."""
    if name not in _PRESET_BUILDERS:
        raise ValueError(f"unknown preset {name!r}")
    return _PRESET_BUILDERS[name](dict(params or {}))


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

_CHECKS = ("killing", "einstein", "walker", "heterotic", "bianchi")


@functools.cache
def _halton_constants(base):
    """Per-base constants of _halton: digit rows, place values, weights."""
    places = math.ceil(54 / math.log2(base)) - 1
    # weights by repeated division, as SciPy accumulates them
    weights = np.empty(places)
    weights[0] = 1.0 / base
    for j in range(1, places):
        weights[j] = weights[j - 1] / base
    rows, place_values = np.tile(np.arange(base), (places, 1)), base ** np.arange(places)
    for shared in (rows, place_values, weights):
        shared.flags.writeable = False  # every call reads the same arrays
    return rows, place_values, weights


_HALTON_DIGITS = {}  # base -> _halton_digits of the first points, grown to the largest seen


def _halton_digits(base, start, stop):
    """Flat indices place * base + digit of the points start..stop-1 into the digit rows."""
    table = _HALTON_DIGITS.get(base, ())
    if start or stop > len(table):
        powers = _halton_constants(base)[1]
        table = np.arange(powers.size) * base + np.arange(start, stop)[:, None] // powers % base
        if start:
            return table
        table.flags.writeable = False  # every later call reads it
        _HALTON_DIGITS[base] = table
    return table[:stop]


def _halton(n, seed):
    """n points of the scrambled Halton sequence in [0, 1)^4, bases 2, 3, 5, 7.

    Owen's randomized Halton (arXiv 1706.02808), bit for bit as SciPy's
    ``qmc.Halton(d=4, scramble=True, seed=seed).random(n)``: each base
    shuffles its digits per place, down to the places a double resolves,
    and point i sums its permuted digits weighted by base^-(place + 1).
    A call draws the seeded permutations and reads the kept digit table.
    """
    rng = np.random.default_rng(seed)
    bases = (2, 3, 5, 7)
    perms = [rng.permuted(_halton_constants(base)[0], axis=1) for base in bases]
    out = np.empty((n, 4))
    # the (points, places) digit arrays are read a block at a time, so
    # their size does not grow with n
    for start in range(0, n, HALTON_BLOCK):
        stop = min(start + HALTON_BLOCK, n)
        for col, base in enumerate(bases):
            digits = perms[col].ravel()[_halton_digits(base, start, stop)]
            # a left-to-right sum, as SciPy's, so no sample point moves in its last bit
            out[start:stop, col] = np.cumsum(digits * _halton_constants(base)[2], axis=1)[:, -1]
    return out


def _perturbed(ps, amount):
    # surface presets take the bump on the F profile (and hence the
    # chart), anything else a uniform rescaling of the metric
    if ps.walker is not None:
        base = ps.walker.F
        wd = replace(ps.walker, F=replace(base, value=lambda s: base.value(s) + amount))
        return replace(ps, walker=wd, chart=walker_chart(wd),
                       killing=ps.killing and walker_killing_data(wd))
    factor = 1.0 + amount
    old = ps.chart
    chart = replace(old, jet=lambda x, order: tuple(factor * part for part in old.jet(x, order)))
    updates = {"chart": chart}
    if ps.heterotic is not None:
        updates["heterotic"] = replace(ps.heterotic, chart=chart)
    return replace(ps, **updates)


def _score(ps, check, x):
    """Residual name -> one value per point of the stack x.

    A surface preset's chart and pair are its surface data's, so its
    killing and einstein blocks read F, K, q2 and s_frak once and pass
    the jets down.
    """
    wd = ps.walker
    if check == "killing":
        if wd is None or wd.s_frak is None:
            res = killing_pair_residual(ps.chart, ps.killing, x, invariant_tol=np.inf)
        else:
            jet, ginv, _, k, _ = _chart_jet(ps.chart, x, 1, wd, 2)
            u_jet, l_jet, kappa = _surface_pair(wd.lam, x, k, wd.s_frak.jet(_surface(x), 1))
            res = _pair_residuals(jet, ginv, u_jet, l_jet, wd.lam, lambda *_: kappa, np.inf)
        return {"killing.r_u": res.r_u, "killing.r_l": res.r_l, "killing.parabolic": res.parabolic}
    if check == "einstein":
        jet, ginv, *surface = _chart_jet(ps.chart, x, 2, wd)
        g = jet[0]
        defect = _ricci(jet, ginv) + 3.0 * ps.lam**2 * g
        out = {"einstein.chart": _max_abs(defect, 2) / _max_abs(g, 2)}
        if wd is not None:
            f, k, q = surface
            res = _einstein(wd, f, _nonzero(k), q, np.linalg.inv(q[0]))
            out["einstein.f_equation"] = res.f_equation
            out["einstein.ricci_q"] = res.ricci_q
        return out
    if check == "walker":
        res = walker_residuals(ps.walker, x[..., 2:])
        return {f"walker.{name}": getattr(res, name) for name in ("hessian", "laplacian", "s_v")}
    if check == "heterotic":
        res = heterotic_susy_residuals(ps.heterotic, ps.killing, x)
        out = {f"heterotic.{name}": value for name, value in res.items()}
        out["heterotic.bianchi"] = modified_bianchi_residual(ps.heterotic, x)
        return out
    return {"bianchi.modified": modified_bianchi_residual(ps.heterotic, x)}


def _summary(vals, pts):
    # the mean is a left-to-right sum, as when the points were scored one by one
    listed = vals.tolist()
    worst = int(np.argmax(vals))
    mean = sum(listed) / len(listed)
    return {"max": listed[worst], "mean": mean, "worst_point": pts[worst].tolist()}


def run_campaign(ps, check, n_points=20, seed=0, tol=1e-6, perturb=0.0):
    """Score one residual family at quasi-random points of the sample box.

    Returns a JSON-ready report with per-residual max, mean and sample
    point of the max, and verdict "pass" when every max is within tol.
    perturb biases the preset first, as a detection control.  Points are
    scored in blocks of POINT_BLOCK; overflow, division by zero or an
    invalid operation raises FloatingPointError, never scoring inf or nan.
    """
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}")
    if check == "killing" and ps.killing is None:
        raise ValueError(f"preset {ps.name} carries no pair data")
    if check == "walker" and ps.walker is None:
        raise ValueError(f"preset {ps.name} carries no surface data")
    if check == "heterotic" and (ps.heterotic is None or ps.killing is None):
        raise ValueError(f"preset {ps.name} carries no heterotic data")
    if check == "bianchi" and ps.heterotic is None:
        raise ValueError(f"preset {ps.name} carries no heterotic data")
    perturb = _finite("perturb", perturb)
    if perturb:
        ps = _perturbed(ps, perturb)
    lower, upper = np.asarray(ps.sample_box, dtype=float).T
    pts = _halton(n_points, seed) * (upper - lower) + lower

    blocks: dict[str, list[np.ndarray]] = {}
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for start in range(0, n_points, POINT_BLOCK):
            x = pts[start:start + POINT_BLOCK]
            for name, value in _score(ps, check, x).items():
                blocks.setdefault(name, []).append(np.broadcast_to(value, x.shape[:-1]))

    residuals = {name: _summary(np.concatenate(parts), pts) for name, parts in blocks.items()}
    verdict = "pass" if all(r["max"] <= tol for r in residuals.values()) else "fail"
    return {
        "preset": ps.name,
        "params": ps.params,
        "points": int(n_points),
        "residuals": residuals,
        "verdict": verdict,
        "seed": int(seed),
    }
