"""Residual evaluators for Lorentzian metric families on explicit charts.

A MetricChart carries the metric together with its first and second
coordinate derivatives, either in closed form or as centered
differences.  On top of it this module computes Christoffel symbols,
curvature, covariant derivatives of one-form fields, and a chart-level
Hodge dual, and uses them to score three first-order systems:

* parabolic Killing pairs: a nowhere-zero null one-form u and a unit
  spacelike l orthogonal to it, with nabla u = lam*(u (x) l - l (x) u)
  and nabla l = kappa (x) u + lam*(l (x) l - g) for some shift
  one-form kappa;
* the reduction of that system to a surface triple (F, K, q2) for
  charts of the form F dv^2 + 2 K dv du + q2, together with the
  Einstein reduction of the same family;
* the heterotic supersymmetry relations tying a dilaton one-form, a
  three-form flux, and gauge curvature two-forms to the pair (u, l),
  plus the flux Bianchi identity with its F wedge F source.

Wedges of one-forms are stored as fully antisymmetrized covariant
tensors without the 1/k! normalization, so (a ^ b)_{ij} = a_i b_j -
a_j b_i.  Named presets supply closed-form charts for the constant
curvature half-space model, its two deformation families over the
hyperbolic half-plane, and a plane-fronted heterotic background, each
with the field data needed by the residual campaigns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

_FD_SCALE = 1e-5


def _fd_steps(x):
    return _FD_SCALE * (1.0 + np.abs(x))


def _fd_jacobian(f, x):
    """Centered differences; leading axis is the derivative direction."""
    x = np.asarray(x, dtype=float)
    h = _fd_steps(x)
    rows = []
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h[k]
        xm[k] -= h[k]
        rows.append((np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2.0 * h[k]))
    return np.stack(rows)


def _fd_second(f, x):
    """Second partials; the two leading axes are derivative directions."""
    x = np.asarray(x, dtype=float)
    h = _fd_steps(x)
    f0 = np.asarray(f(x), dtype=float)
    n = x.size
    out = np.zeros((n, n) + f0.shape)
    for m in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[m] += h[m]
        xm[m] -= h[m]
        out[m, m] = (np.asarray(f(xp), float) - 2.0 * f0 + np.asarray(f(xm), float)) / h[m] ** 2
        for k in range(m + 1, n):
            xa = x.copy()
            xb = x.copy()
            xc = x.copy()
            xd = x.copy()
            xa[m] += h[m]
            xa[k] += h[k]
            xb[m] += h[m]
            xb[k] -= h[k]
            xc[m] -= h[m]
            xc[k] += h[k]
            xd[m] -= h[m]
            xd[k] -= h[k]
            mixed = (
                np.asarray(f(xa), float)
                - np.asarray(f(xb), float)
                - np.asarray(f(xc), float)
                + np.asarray(f(xd), float)
            ) / (4.0 * h[m] * h[k])
            out[m, k] = mixed
            out[k, m] = mixed
    return out


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Scalar function of a chart point, with optional closed-form partials."""

    value: Callable
    grad: Callable | None = None
    hess: Callable | None = None

    def gradient(self, x):
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return _fd_jacobian(self.value, np.asarray(x, dtype=float))

    def hessian(self, x):
        """Plain coordinate second partials, not the covariant Hessian."""
        if self.hess is not None:
            return np.asarray(self.hess(x), dtype=float)
        return _fd_second(self.value, np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class OneFormField:
    """One-form with components in chart order; jac rows are directions."""

    value: Callable
    jac: Callable | None = None

    def jacobian(self, x):
        # J[i, j] = d_i omega_j
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=float)
        return _fd_jacobian(self.value, np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class MetricChart:
    """Pseudo-Riemannian metric on a coordinate chart.

    g(x) is the component matrix, dg(x)[m] = d_m g and
    d2g(x)[m, n] = d_m d_n g.  provenance records whether the
    derivative callables are closed forms or centered differences of g;
    in_domain, when given, restricts the chart to a coordinate region.
    """

    g: Callable
    dg: Callable
    d2g: Callable
    provenance: str = "analytic"
    in_domain: Callable | None = None
    dim: int = 4

    @classmethod
    def from_callable(cls, g, in_domain=None, dim=4):
        return cls(
            g=g,
            dg=lambda x: _fd_jacobian(g, x),
            d2g=lambda x: _fd_second(g, x),
            provenance="finite-difference",
            in_domain=in_domain,
            dim=dim,
        )

    def contains(self, x):
        return self.in_domain is None or bool(self.in_domain(x))


def christoffel(chart, x):
    """Levi-Civita symbols, gamma[k, i, j] = Gamma^k_{ij}."""
    x = np.asarray(x, dtype=float)
    if not chart.contains(x):
        raise ValueError("point lies outside the chart domain")
    ginv = np.linalg.inv(chart.g(x))
    dg = np.asarray(chart.dg(x), dtype=float)
    braces = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, braces)


def _christoffel_with_derivative(chart, x):
    ginv = np.linalg.inv(chart.g(x))
    dg = np.asarray(chart.dg(x), dtype=float)
    d2g = np.asarray(chart.d2g(x), dtype=float)
    braces = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    dbraces = d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) - d2g
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, braces)
    dgamma = 0.5 * np.einsum("mkl,lij->mkij", dginv, braces)
    dgamma += 0.5 * np.einsum("kl,mlij->mkij", ginv, dbraces)
    return gamma, dgamma


def riemann(chart, x):
    """Curvature tensor R[r, s, m, n] = R^r_{smn}, first index raised."""
    x = np.asarray(x, dtype=float)
    if not chart.contains(x):
        raise ValueError("point lies outside the chart domain")
    gamma, dgamma = _christoffel_with_derivative(chart, x)
    t = np.einsum("mrns->rsmn", dgamma)
    gg = np.einsum("rml,lns->rsmn", gamma, gamma)
    return t - t.transpose(0, 1, 3, 2) + gg - gg.transpose(0, 1, 3, 2)


def ricci(chart, x):
    return np.einsum("rsrn->sn", riemann(chart, x))


def covariant_derivative_oneform(chart, omega, x):
    """(nabla omega)[i, j] = d_i omega_j - Gamma^k_{ij} omega_k."""
    x = np.asarray(x, dtype=float)
    gamma = christoffel(chart, x)
    w = np.asarray(omega.value(x), dtype=float)
    return omega.jacobian(x) - np.einsum("kij,k->ij", gamma, w)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


_EPS_CACHE: dict[int, np.ndarray] = {}


def _levi_civita(n):
    if n not in _EPS_CACHE:
        eps = np.zeros((n,) * n)
        for perm in itertools.permutations(range(n)):
            eps[perm] = _perm_sign(perm)
        _EPS_CACHE[n] = eps
    return _EPS_CACHE[n]


_RAISE = {
    1: "Aa,a->A",
    2: "Aa,Bb,ab->AB",
    3: "Aa,Bb,Cc,abc->ABC",
    4: "Aa,Bb,Cc,Dd,abcd->ABCD",
}


def hodge_star_chart(chart, x, omega):
    """Hodge dual of a degree-k alternating covariant tensor at x.

    Contracts the raised tensor with the permutation symbol normalized
    to +1 on the chart coordinate order, weighted by the metric volume
    sqrt(|det g|)/k!, so on an orthonormal chart it matches the
    algebraic dual under the component dictionary coeff_{i<j<...} =
    T_{ij...}.
    """
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    k = omega.ndim
    g = chart.g(x)
    root = math.sqrt(abs(np.linalg.det(g)))
    eps = _levi_civita(chart.dim)
    if k == 0:
        return root * float(omega) * eps
    ginv = np.linalg.inv(g)
    raised = np.einsum(_RAISE[k], *([ginv] * k + [omega]))
    axes = (tuple(range(k)), tuple(range(k)))
    return root / math.factorial(k) * np.tensordot(raised, eps, axes=axes)


def _wedge_oneforms(*forms):
    """Wedge of one-forms as a tensor, no 1/k! factor."""
    forms = [np.asarray(f, dtype=float) for f in forms]
    k = len(forms)
    out = np.zeros((forms[0].size,) * k)
    for perm in itertools.permutations(range(k)):
        term = np.array(1.0)
        for p in perm:
            term = np.multiply.outer(term, forms[p])
        out += _perm_sign(perm) * term
    return out


def _wedge_two_forms(a, b):
    # det convention: antisymmetrize the outer product over S4 and
    # divide by 2!2! for the two-form factors
    t = np.einsum("ij,kl->ijkl", a, b)
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(4)):
        out += _perm_sign(perm) * np.transpose(t, perm)
    return out / 4.0


# ---------------------------------------------------------------------------
# parabolic Killing pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KillingData:
    """Candidate pair of one-form fields with rate lam.

    u must be nowhere-zero null, l unit spacelike and orthogonal to u,
    pointwise.  kappa is the shift one-form of the l equation; when
    absent it is fitted at each sample point.
    """

    u: OneFormField
    l: OneFormField
    lam: float
    kappa: OneFormField | None = None


@dataclass(frozen=True, eq=False)
class KillingResiduals:
    r_u: float
    r_l: float
    kappa_hat: np.ndarray


def _parabolic_violation(ginv, u, l):
    scale = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(l)))) ** 2
    uu = float(u @ ginv @ u)
    ll = float(l @ ginv @ l)
    ul = float(u @ ginv @ l)
    return max(abs(uu), abs(ll - 1.0), abs(ul)) / scale


def killing_pair_residual(chart, kd, x, invariant_tol=1e-6):
    """Residuals of the pair system at x.

    r_u scores nabla u = lam*(u (x) l - l (x) u) and r_l scores
    nabla l = kappa (x) u + lam*(l (x) l - g), with kappa taken from kd
    or fitted by projecting each row of the defect onto u.  Pointwise
    pair invariants beyond invariant_tol raise; pass inf to score
    degenerate candidates anyway.
    """
    x = np.asarray(x, dtype=float)
    g = chart.g(x)
    ginv = np.linalg.inv(g)
    u = np.asarray(kd.u.value(x), dtype=float)
    l = np.asarray(kd.l.value(x), dtype=float)
    if np.max(np.abs(u)) <= 1e-12:
        raise ValueError("u vanishes at the sample point")
    violation = _parabolic_violation(ginv, u, l)
    if violation > invariant_tol:
        raise ValueError(f"pair invariants violated by {violation:.3e}")
    nabla_u = covariant_derivative_oneform(chart, kd.u, x)
    r_u = float(np.max(np.abs(nabla_u - kd.lam * (np.outer(u, l) - np.outer(l, u)))))
    nabla_l = covariant_derivative_oneform(chart, kd.l, x)
    defect = nabla_l - kd.lam * (np.outer(l, l) - g)
    if kd.kappa is not None:
        kappa_hat = np.asarray(kd.kappa.value(x), dtype=float)
    else:
        kappa_hat = defect @ u / float(u @ u)
    r_l = float(np.max(np.abs(defect - np.outer(kappa_hat, u))))
    return KillingResiduals(r_u=r_u, r_l=r_l, kappa_hat=kappa_hat)


# ---------------------------------------------------------------------------
# surface reduction for F dv^2 + 2 K dv du + q2 charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WalkerData:
    """Surface data for the chart F dv^2 + 2 K dv du + q2.

    F and K are profile functions of the surface point, q2 the surface
    metric, and s_frak the optional v-component of l in the gauge where
    the shift one-form is d(s_frak)/K.
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
    hessian: float
    laplacian: float
    s_v: float
    gauge_imaginary: bool


@dataclass(frozen=True, eq=False)
class EinsteinResiduals:
    f_equation: float
    ricci_q: float


def walker_chart(wd):
    """Assemble the four-dimensional chart; coordinates (v, u, x, y)."""
    q2 = wd.q2

    def g(x):
        s = np.asarray(x, dtype=float)[2:]
        out = np.zeros((4, 4))
        out[0, 0] = wd.F.value(s)
        out[0, 1] = out[1, 0] = wd.K.value(s)
        out[2:, 2:] = q2.g(s)
        return out

    def dg(x):
        s = np.asarray(x, dtype=float)[2:]
        out = np.zeros((4, 4, 4))
        d_f = wd.F.gradient(s)
        d_k = wd.K.gradient(s)
        d_q = np.asarray(q2.dg(s), dtype=float)
        for m in (2, 3):
            out[m, 0, 0] = d_f[m - 2]
            out[m, 0, 1] = out[m, 1, 0] = d_k[m - 2]
            out[m, 2:, 2:] = d_q[m - 2]
        return out

    def d2g(x):
        s = np.asarray(x, dtype=float)[2:]
        out = np.zeros((4, 4, 4, 4))
        h_f = wd.F.hessian(s)
        h_k = wd.K.hessian(s)
        h_q = np.asarray(q2.d2g(s), dtype=float)
        for m in (2, 3):
            for n in (2, 3):
                out[m, n, 0, 0] = h_f[m - 2, n - 2]
                out[m, n, 0, 1] = out[m, n, 1, 0] = h_k[m - 2, n - 2]
                out[m, n, 2:, 2:] = h_q[m - 2, n - 2]
        return out

    closed_form = (
        wd.F.grad is not None
        and wd.F.hess is not None
        and wd.K.grad is not None
        and wd.K.hess is not None
        and q2.provenance == "analytic"
    )
    domain = None
    if q2.in_domain is not None:
        def domain(x):
            return bool(q2.in_domain(np.asarray(x, dtype=float)[2:]))
    return MetricChart(
        g=g,
        dg=dg,
        d2g=d2g,
        provenance="analytic" if closed_form else "finite-difference",
        in_domain=domain,
    )


def _surface_hessian(q2, f, s):
    gamma = christoffel(q2, s)
    return f.hessian(s) - np.einsum("kij,k->ij", gamma, f.gradient(s))


def _gauge_square(wd, s, K, qinv):
    pair_kf = float(wd.K.gradient(s) @ qinv @ wd.F.gradient(s))
    return float(wd.F.value(s)) - pair_kf / (4.0 * wd.lam**2 * K), pair_kf


def walker_residuals(wd, s):
    """Profile equations of the pair system at a surface point.

    hessian and laplacian score the second-order K equations.  The
    gauge square F - q*(dK, dF)/(4 lam^2 K) fixes s_frak up to sign;
    when it is negative and no s_frak is supplied the configuration is
    flagged rather than failed, and the first-order compatibility
    residuals are skipped.  With s_frak supplied only the v-direction
    equation is nontrivial in this gauge, the u and surface directions
    holding identically, so s_v is the one first-order residual.
    """
    s = np.asarray(s, dtype=float)
    K = float(wd.K.value(s))
    if abs(K) < 1e-12:
        raise ValueError("profile K must be nowhere zero")
    lam = wd.lam
    q = wd.q2.g(s)
    qinv = np.linalg.inv(q)
    d_k = wd.K.gradient(s)
    hess_k = _surface_hessian(wd.q2, wd.K, s)
    hess_res = float(
        np.max(np.abs(hess_k - np.outer(d_k, d_k) / (2.0 * K) - 2.0 * lam**2 * K * q))
    )
    lap_res = float(abs(np.trace(qinv @ hess_k) - 6.0 * lam**2 * K))
    square, pair_kf = _gauge_square(wd, s, K, qinv)
    if wd.s_frak is None:
        return WalkerResiduals(hess_res, lap_res, 0.0, bool(square < 0.0))
    sval = float(wd.s_frak.value(s))
    s_v = float(abs(pair_kf / (4.0 * lam * K) - lam * (float(wd.F.value(s)) - sval**2)))
    return WalkerResiduals(hess_res, lap_res, s_v, False)


def einstein_residual(wd, s):
    """Einstein reduction: the F equation and Ric(q2) = -lam^2 q2."""
    s = np.asarray(s, dtype=float)
    K = float(wd.K.value(s))
    if abs(K) < 1e-12:
        raise ValueError("profile K must be nowhere zero")
    lam = wd.lam
    q = wd.q2.g(s)
    qinv = np.linalg.inv(q)
    hess_f = _surface_hessian(wd.q2, wd.F, s)
    pair_kf = float(wd.K.gradient(s) @ qinv @ wd.F.gradient(s))
    f_res = abs(np.trace(qinv @ hess_f) - pair_kf / K - 2.0 * lam**2 * float(wd.F.value(s)))
    ric_res = float(np.max(np.abs(ricci(wd.q2, s) + lam**2 * q)))
    return EinsteinResiduals(f_equation=float(f_res), ricci_q=ric_res)


def walker_killing_data(wd):
    """Pair of one-form fields induced on the assembled chart.

    u = K dv, and l carries the gauge component s_frak along dv with
    -dK/(2 lam K) along the surface; without s_frak the gauge component
    is the nonnegative root of the gauge square.  kappa is left to the
    pointwise fit.
    """

    def u_val(x):
        out = np.zeros(4)
        out[0] = wd.K.value(np.asarray(x, dtype=float)[2:])
        return out

    def u_jac(x):
        out = np.zeros((4, 4))
        out[2:, 0] = wd.K.gradient(np.asarray(x, dtype=float)[2:])
        return out

    def gauge_component(s):
        if wd.s_frak is not None:
            return float(wd.s_frak.value(s))
        K = float(wd.K.value(s))
        qinv = np.linalg.inv(wd.q2.g(s))
        square, _ = _gauge_square(wd, s, K, qinv)
        return math.sqrt(max(square, 0.0))

    def l_val(x):
        s = np.asarray(x, dtype=float)[2:]
        K = float(wd.K.value(s))
        out = np.zeros(4)
        out[0] = gauge_component(s)
        out[2:] = -wd.K.gradient(s) / (2.0 * wd.lam * K)
        return out

    return KillingData(
        u=OneFormField(u_val, jac=u_jac),
        l=OneFormField(l_val),
        lam=wd.lam,
        kappa=None,
    )


# ---------------------------------------------------------------------------
# heterotic supersymmetry residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HeteroticConfig:
    """Background fields entering the supersymmetry relations.

    varphi is the dilaton one-form (required closed), H the three-form
    flux as a covariant tensor callable (None for zero), FA the gauge
    curvature two-form callables and signs their coefficients in the
    F wedge F source of the Bianchi identity.  chi_A, when given,
    supplies the expected transverse factors of the splittings
    F_A = u ^ chi_A instead of fitting them.
    """

    chart: MetricChart
    varphi: OneFormField
    H: Callable | None = None
    FA: Sequence[Callable] = ()
    signs: Sequence[float] = ()
    chi_A: Sequence[Callable] | None = None


def _gaugino_fit(hc, ginv, u, x):
    if not hc.FA:
        return 0.0
    c = ginv @ u
    _, _, vt = np.linalg.svd(c[None, :])
    null_basis = vt[1:].T
    cols = np.stack([_wedge_oneforms(u, e).ravel() for e in np.eye(4)], axis=1)
    design = cols @ null_basis
    worst = 0.0
    for idx, curvature in enumerate(hc.FA):
        target = np.asarray(curvature(x), dtype=float)
        if hc.chi_A is not None:
            chi = np.asarray(hc.chi_A[idx](x), dtype=float)
            fit = float(np.max(np.abs(target - _wedge_oneforms(u, chi))))
            fit = max(fit, abs(float(chi @ ginv @ u)))
        else:
            coef, *_ = np.linalg.lstsq(design, target.ravel(), rcond=None)
            fit = float(np.max(np.abs(design @ coef - target.ravel())))
        worst = max(worst, fit)
    return worst


def _coclosed_residual(hc, x):
    if hc.H is None:
        return 0.0
    chart = hc.chart

    def density(p):
        p = np.asarray(p, dtype=float)
        g = chart.g(p)
        rho = hodge_star_chart(chart, p, np.asarray(hc.H(p), dtype=float))
        return math.sqrt(abs(np.linalg.det(g))) * (np.linalg.inv(g) @ rho)

    divergence = float(np.trace(_fd_jacobian(density, x)))
    return abs(divergence) / math.sqrt(abs(np.linalg.det(chart.g(x))))


def heterotic_susy_residuals(hc, kd, x):
    """All supersymmetry relations at x, as an ordered name -> value map.

    rho is the one-form dual of the flux.  The three star identities,
    the three pairings, the gaugino splitting, both derivative
    equations (with the shift one-form taken from kd or fitted), the
    coclosedness of rho, and closedness of the dilaton one-form are
    each scored in the max norm.
    """
    x = np.asarray(x, dtype=float)
    chart = hc.chart
    g = chart.g(x)
    ginv = np.linalg.inv(g)
    u = np.asarray(kd.u.value(x), dtype=float)
    l = np.asarray(kd.l.value(x), dtype=float)
    phi = np.asarray(hc.varphi.value(x), dtype=float)
    if hc.H is None:
        rho = np.zeros(4)
    else:
        rho = hodge_star_chart(chart, x, np.asarray(hc.H(x), dtype=float))

    def pairing(a, b):
        return float(a @ ginv @ b)

    res = {}
    res["star_identity_u"] = float(
        np.max(np.abs(_wedge_oneforms(phi, u) - hodge_star_chart(chart, x, _wedge_oneforms(rho, u))))
    )
    res["star_identity_ul"] = float(
        np.max(np.abs(_wedge_oneforms(phi, u, l) + pairing(rho, l) * hodge_star_chart(chart, x, u)))
    )
    res["star_identity_l"] = float(
        np.max(np.abs(hodge_star_chart(chart, x, _wedge_oneforms(l, u, rho)) + pairing(phi, l) * u))
    )
    res["u_phi_orthogonal"] = abs(pairing(u, phi))
    res["u_rho_orthogonal"] = abs(pairing(u, rho))
    res["rho_phi_orthogonal"] = abs(pairing(rho, phi))
    res["gaugino_fit"] = _gaugino_fit(hc, ginv, u, x)
    nabla_u = covariant_derivative_oneform(chart, kd.u, x)
    res["grad_u"] = float(np.max(np.abs(nabla_u - 0.5 * _wedge_oneforms(u, phi))))
    nabla_l = covariant_derivative_oneform(chart, kd.l, x)
    defect = nabla_l - 0.5 * hodge_star_chart(chart, x, _wedge_oneforms(rho, l))
    if kd.kappa is not None:
        kappa = np.asarray(kd.kappa.value(x), dtype=float)
    else:
        kappa = defect @ u / float(u @ u)
    res["grad_l"] = float(np.max(np.abs(defect - np.outer(kappa, u))))
    res["rho_coclosed"] = _coclosed_residual(hc, x)
    jac = hc.varphi.jacobian(x)
    res["dphi_closed"] = float(np.max(np.abs(jac - jac.T)))
    return res


def modified_bianchi_residual(hc, x):
    """Max norm of dH - sum_a signs_a * F_a ^ F_a at x, dH by differences."""
    x = np.asarray(x, dtype=float)
    if hc.H is None:
        d_h = np.zeros((4, 4, 4, 4))
    else:
        jac = _fd_jacobian(lambda p: np.asarray(hc.H(p), dtype=float), x)
        d_h = (
            jac
            - jac.transpose(1, 0, 2, 3)
            + jac.transpose(1, 2, 0, 3)
            - jac.transpose(1, 2, 3, 0)
        )
    source = np.zeros((4, 4, 4, 4))
    for sign, curvature in zip(hc.signs, hc.FA):
        two_form = np.asarray(curvature(x), dtype=float)
        source = source + sign * _wedge_two_forms(two_form, two_form)
    return float(np.max(np.abs(d_h - source)))


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
    walker: WalkerData | None = None
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

    def g(s):
        return np.eye(2) / (lam * s[1]) ** 2

    def dg(s):
        out = np.zeros((2, 2, 2))
        out[1] = -2.0 * np.eye(2) / (lam**2 * s[1] ** 3)
        return out

    def d2g(s):
        out = np.zeros((2, 2, 2, 2))
        out[1, 1] = 6.0 * np.eye(2) / (lam**2 * s[1] ** 4)
        return out

    return MetricChart(
        g=g, dg=dg, d2g=d2g, provenance="analytic",
        in_domain=lambda s: s[1] > 0.0, dim=2,
    )


def _inverse_square_profile(c0):
    return ScalarField(
        value=lambda s: c0 / s[1] ** 2,
        grad=lambda s: np.array([0.0, -2.0 * c0 / s[1] ** 3]),
        hess=lambda s: np.array([[0.0, 0.0], [0.0, 6.0 * c0 / s[1] ** 4]]),
    )


_ZERO_SURFACE = ScalarField(
    value=lambda s: 0.0,
    grad=lambda s: np.zeros(2),
    hess=lambda s: np.zeros((2, 2)),
)


def _preset_minkowski(params):
    _check_keys("minkowski", params, set())
    eta = np.diag([1.0, 1.0, 1.0, -1.0])
    chart = MetricChart(
        g=lambda x: eta.copy(),
        dg=lambda x: np.zeros((4, 4, 4)),
        d2g=lambda x: np.zeros((4, 4, 4, 4)),
        provenance="analytic",
    )
    kd = KillingData(
        u=OneFormField(lambda x: np.array([1.0, 0.0, 0.0, 1.0]), jac=lambda x: np.zeros((4, 4))),
        l=OneFormField(lambda x: np.array([0.0, 1.0, 0.0, 0.0]), jac=lambda x: np.zeros((4, 4))),
        lam=0.0,
    )
    return Preset(
        name="minkowski", params={}, chart=chart, lam=0.0,
        sample_box=_BOX_FLAT, killing=kd,
    )


def _preset_ads4(params):
    _check_keys("ads4", params, {"lam"})
    lam = _rate(params)
    profile = _inverse_square_profile(1.0 / lam**2)
    wd = WalkerData(
        F=profile, K=profile, q2=_poincare_half_plane(lam), lam=lam,
        s_frak=_ZERO_SURFACE,
    )

    def u_val(x):
        return np.array([1.0 / (lam * x[3]) ** 2, 0.0, 0.0, 0.0])

    def u_jac(x):
        out = np.zeros((4, 4))
        out[3, 0] = -2.0 / (lam**2 * x[3] ** 3)
        return out

    def l_val(x):
        return np.array([0.0, 0.0, 0.0, 1.0 / (lam * x[3])])

    def l_jac(x):
        out = np.zeros((4, 4))
        out[3, 3] = -1.0 / (lam * x[3] ** 2)
        return out

    kd = KillingData(
        u=OneFormField(u_val, jac=u_jac),
        l=OneFormField(l_val, jac=l_jac),
        lam=lam,
        kappa=OneFormField(lambda x: np.zeros(4), jac=lambda x: np.zeros((4, 4))),
    )
    return Preset(
        name="ads4", params={"lam": lam}, chart=walker_chart(wd), lam=lam,
        sample_box=_BOX_HALF, killing=kd, walker=wd,
    )


def _preset_poly(params):
    _check_keys("ads4-deformed-poly", params, {"lam", "a"})
    lam = _rate(params)
    a1, a2, a3, a4 = _coefficients(params, (1.0, 0.5, 0.2, 0.1))

    def linear(x_coord):
        return a1 + a2 * x_coord

    profile_f = ScalarField(
        value=lambda s: linear(s[0]) * (a3 * s[1] + a4 / s[1] ** 2),
        grad=lambda s: np.array([
            a2 * (a3 * s[1] + a4 / s[1] ** 2),
            linear(s[0]) * (a3 - 2.0 * a4 / s[1] ** 3),
        ]),
        hess=lambda s: np.array([
            [0.0, a2 * (a3 - 2.0 * a4 / s[1] ** 3)],
            [a2 * (a3 - 2.0 * a4 / s[1] ** 3), linear(s[0]) * 6.0 * a4 / s[1] ** 4],
        ]),
    )
    box = _BOX_DEFORMED
    # the gauge square is 1.5*a3*y*(a1 + a2*x); attach pair data only
    # when it stays safely positive on the sample box
    gated = a3 >= 0.0 and min(linear(box[2][0]), linear(box[2][1])) >= 0.05

    def gauge_val(s):
        return math.sqrt(1.5 * a3 * s[1] * linear(s[0]))

    def gauge_grad(s):
        sv = gauge_val(s)
        return np.array([sv * a2 / (2.0 * linear(s[0])), sv / (2.0 * s[1])])

    s_field = ScalarField(value=gauge_val, grad=gauge_grad) if gated else None
    wd = WalkerData(
        F=profile_f, K=_inverse_square_profile(0.5),
        q2=_poincare_half_plane(lam), lam=lam, s_frak=s_field,
    )

    kd = None
    if gated:
        def u_val(x):
            return np.array([0.5 / x[3] ** 2, 0.0, 0.0, 0.0])

        def u_jac(x):
            out = np.zeros((4, 4))
            out[3, 0] = -1.0 / x[3] ** 3
            return out

        def l_val(x):
            return np.array([gauge_val(x[2:]), 0.0, 0.0, 1.0 / (lam * x[3])])

        def l_jac(x):
            grad = gauge_grad(x[2:])
            out = np.zeros((4, 4))
            out[2, 0] = grad[0]
            out[3, 0] = grad[1]
            out[3, 3] = -1.0 / (lam * x[3] ** 2)
            return out

        def kappa_val(x):
            # shift gauge: kappa = d(s_frak)/K with K = 1/(2 y^2)
            out = np.zeros(4)
            out[2:] = 2.0 * x[3] ** 2 * gauge_grad(x[2:])
            return out

        kd = KillingData(
            u=OneFormField(u_val, jac=u_jac),
            l=OneFormField(l_val, jac=l_jac),
            lam=lam,
            kappa=OneFormField(kappa_val),
        )
    return Preset(
        name="ads4-deformed-poly", params={"lam": lam, "a": [a1, a2, a3, a4]},
        chart=walker_chart(wd), lam=lam, sample_box=box, killing=kd, walker=wd,
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
    sin, cos = math.sin(z), math.cos(z)
    j0, y0 = sin / z, -cos / z
    if abs(z) < _J1_SERIES_CUTOFF:
        z2 = z * z
        acc = 0.0
        for coef in reversed(_J1_SERIES):
            acc = acc * z2 + coef
        j1 = z * acc
    else:
        j1 = (j0 - cos) / z
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
        hpp = -(2.0 / z) * hp - (1.0 - 2.0 / z**2) * h
        return h, hp, hpp

    def split(x_coord):
        grow = a1 * math.exp(c * x_coord)
        decay = a2 * math.exp(-c * x_coord)
        return grow + decay, grow - decay

    def f_val(s):
        h, _, _ = radial(c * s[1])
        return split(s[0])[0] * h

    def f_grad(s):
        even, odd = split(s[0])
        h, hp, _ = radial(c * s[1])
        return np.array([c * odd * h, c * even * hp])

    def f_hess(s):
        even, odd = split(s[0])
        h, hp, hpp = radial(c * s[1])
        return np.array([
            [c**2 * even * h, c**2 * odd * hp],
            [c**2 * odd * hp, c**2 * even * hpp],
        ])

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

    def as_field(obj):
        return obj if isinstance(obj, ScalarField) else ScalarField(obj)

    q2 = params["q2"]
    if not isinstance(q2, MetricChart):
        q2 = MetricChart.from_callable(q2, dim=2)
    s_frak = params.get("s_frak")
    if s_frak is not None:
        s_frak = as_field(s_frak)
    wd = WalkerData(
        F=as_field(params["F"]), K=as_field(params["K"]),
        q2=q2, lam=lam, s_frak=s_frak,
    )
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
        return amp * (1.0 - math.cos(v))

    def rate(v):
        return amp * math.sin(v)

    def g(x):
        out = np.zeros((4, 4))
        out[0, 1] = out[1, 0] = 1.0
        out[2:, 2:] = math.exp(2.0 * phase(x[0])) * q0
        return out

    def dg(x):
        out = np.zeros((4, 4, 4))
        out[0, 2:, 2:] = 2.0 * rate(x[0]) * math.exp(2.0 * phase(x[0])) * q0
        return out

    def d2g(x):
        out = np.zeros((4, 4, 4, 4))
        f = rate(x[0])
        out[0, 0, 2:, 2:] = (
            (2.0 * amp * math.cos(x[0]) + 4.0 * f**2) * math.exp(2.0 * phase(x[0])) * q0
        )
        return out

    chart = MetricChart(g=g, dg=dg, d2g=d2g, provenance="analytic")
    transverse = q0[:, 0] / math.sqrt(q0[0, 0])

    def l_val(x):
        out = np.zeros(4)
        out[2:] = math.exp(phase(x[0])) * transverse
        return out

    def l_jac(x):
        out = np.zeros((4, 4))
        out[0, 2:] = rate(x[0]) * math.exp(phase(x[0])) * transverse
        return out

    kd = KillingData(
        u=OneFormField(lambda x: np.array([1.0, 0.0, 0.0, 0.0]), jac=lambda x: np.zeros((4, 4))),
        l=OneFormField(l_val, jac=l_jac),
        lam=0.0,
    )

    def dilaton_val(x):
        v = x[0]
        return np.array([omega[0] + omega[1] * v + omega[2] * v**2, 0.0, 0.0, 0.0])

    def dilaton_jac(x):
        out = np.zeros((4, 4))
        out[0, 0] = omega[1] + 2.0 * omega[2] * x[0]
        return out

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


def _halton(n, seed):
    """n points of the scrambled Halton sequence in [0, 1)^4, bases 2, 3, 5, 7.

    Owen's randomized Halton (arXiv 1706.02808) as SciPy implements it:
    the same points, bit for bit, as SciPy's
    ``qmc.Halton(d=4, scramble=True, seed=seed).random(n)``.
    Each base shuffles one permutation of its digits per base-b place,
    down to the places a double can still resolve, and point i sums the
    permuted digits of i weighted by base^-(place + 1), place by place.
    """
    rng = np.random.default_rng(seed)
    index = np.arange(n)[:, None]
    out = np.empty((n, 4))
    for col, base in enumerate((2, 3, 5, 7)):
        places = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.tile(np.arange(base), (places, 1)), axis=1)
        digits = index // base ** np.arange(places) % base
        # weights by repeated division and a left-to-right sum, as SciPy
        # accumulates them, so no sample point moves in its last bit
        weights = np.empty(places)
        weights[0] = 1.0 / base
        for j in range(1, places):
            weights[j] = weights[j - 1] / base
        out[:, col] = np.cumsum(perms[np.arange(places), digits] * weights, axis=1)[:, -1]
    return out


def _perturbed(ps, amount):
    # surface presets take the bump on the F profile (and hence the
    # chart), anything else a uniform rescaling of the metric
    if ps.walker is not None:
        base = ps.walker.F
        shifted = ScalarField(
            value=lambda s: base.value(s) + amount,
            grad=base.grad,
            hess=base.hess,
        )
        wd = replace(ps.walker, F=shifted)
        return replace(ps, walker=wd, chart=walker_chart(wd))
    factor = 1.0 + amount
    old = ps.chart
    chart = MetricChart(
        g=lambda x: factor * np.asarray(old.g(x), dtype=float),
        dg=lambda x: factor * np.asarray(old.dg(x), dtype=float),
        d2g=lambda x: factor * np.asarray(old.d2g(x), dtype=float),
        provenance=old.provenance,
        in_domain=old.in_domain,
        dim=old.dim,
    )
    updates = {"chart": chart}
    if ps.heterotic is not None:
        updates["heterotic"] = replace(ps.heterotic, chart=chart)
    return replace(ps, **updates)


def run_campaign(ps, check, n_points=20, seed=0, tol=1e-6, perturb=0.0):
    """Score one residual family at quasi-random points of the sample box.

    Returns a JSON-ready report with per-residual max and mean and a
    verdict of "pass" when every max is within tol.  perturb biases the
    preset before sampling, as a detection control.
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
    if lower[3] > 0.0:
        pts[:, 3] = np.maximum(pts[:, 3], 0.05)

    values: dict[str, list[float]] = {}

    def record(name, value):
        values.setdefault(name, []).append(float(value))

    for x in pts:
        if check == "killing":
            res = killing_pair_residual(ps.chart, ps.killing, x, invariant_tol=np.inf)
            record("killing.r_u", res.r_u)
            record("killing.r_l", res.r_l)
            ginv = np.linalg.inv(ps.chart.g(x))
            u = np.asarray(ps.killing.u.value(x), dtype=float)
            l = np.asarray(ps.killing.l.value(x), dtype=float)
            record("killing.parabolic", _parabolic_violation(ginv, u, l))
        elif check == "einstein":
            g = ps.chart.g(x)
            defect = ricci(ps.chart, x) + 3.0 * ps.lam**2 * g
            record("einstein.chart", np.max(np.abs(defect)) / np.max(np.abs(g)))
            if ps.walker is not None:
                res = einstein_residual(ps.walker, x[2:])
                record("einstein.f_equation", res.f_equation)
                record("einstein.ricci_q", res.ricci_q)
        elif check == "walker":
            res = walker_residuals(ps.walker, x[2:])
            record("walker.hessian", res.hessian)
            record("walker.laplacian", res.laplacian)
            record("walker.s_v", res.s_v)
        elif check == "heterotic":
            res = heterotic_susy_residuals(ps.heterotic, ps.killing, x)
            for name, value in res.items():
                record(f"heterotic.{name}", value)
            record("heterotic.bianchi", modified_bianchi_residual(ps.heterotic, x))
        else:
            record("bianchi.modified", modified_bianchi_residual(ps.heterotic, x))

    residuals = {
        name: {"max": max(vals), "mean": sum(vals) / len(vals)}
        for name, vals in values.items()
    }
    verdict = "pass" if all(r["max"] <= tol for r in residuals.values()) else "fail"
    return {
        "preset": ps.name,
        "params": ps.params,
        "points": int(n_points),
        "residuals": residuals,
        "verdict": verdict,
        "seed": int(seed),
    }
