"""Residual evaluators for Lorentzian metric families on explicit charts.

Every chart, profile, one-form and background form is a Field, which
hands out a jet: its value at the points with its coordinate partials up
to a given order.  A chart's jet is (g, dg, d2g).  On it this module
computes Christoffel symbols, the Ricci tensor (directly, without the
Riemann tensor) and covariant derivatives of one-form fields, and scores
a Preset on five checks:

* killing: a parabolic pair (u, l), as the paper poses it: alpha = u + u ^ l
  in an orthonormal coframe must be a spinor square and solve nabla_X alpha
  = (lam/2)(X <> alpha - alpha <> X) in the Kaehler-Atiyah algebra;
* einstein: Ric = -3 lam^2 g, and walker: on charts F dv^2 + 2 K dv du + q2
  the profile equations of K;
* heterotic: the same alpha and frame with nabla_X alpha = -1/4 (i_X H <>
  alpha - alpha <> i_X H), (phi - H) <> alpha = 0 and F_a <> alpha = 0 for
  a dilaton one-form phi, a flux three-form H and gauge curvatures F_a;
  bianchi: the flux Bianchi identity with its F wedge F source.

Each check is one evaluator (ps, x) -> {report key: per-point values} in
_CHECKS, with the preset data it reads; score(ps, check, x) is the one
entry, which checks the points and the preset and raises
FloatingPointError on an overflow or a residual that is not finite, and
run_campaign scores each block through it.  The pair is Preset.killing
where one is given; a surface preset stores none and derives u = K dv
and l = -dK/(2 lam K) from its K, and its chart from its surface data,
whose lam einstein reads.

One-form fields keep their d components; other forms are (..., 16)
coefficient stacks over the coordinate coframe, bitmask-indexed as
Multivector.coeffs (bit i is dx^i), wedged through Signature(3, 1)'s
wedge_sign table, the same in every signature, and read into an
orthonormal coframe E through one map, the exterior powers of E^-1
(_exterior).  Named presets supply closed-form charts for the constant
curvature half-space model, its two deformation families over the
hyperbolic half-plane and a plane-fronted heterotic background.

Points are stacks: fields and residuals take x of shape (..., d), the
leading axes indexing sample points; one point is the stack shape ().
A Field is built one of two ways.  The presets write each field as one
jet function of stacks (_closed) that computes its shared terms once and
each partial only when the order asks for it.  Field.from_callable
serves a one-point callable (the user callbacks): its exact jets from
one call per block on a _jets.JetPoint, or a ValueError naming the
operation where the callback's arithmetic has no exact rule.  A campaign
block reads each field once, to the highest order its check needs
(_chart_jet), and inverts one chart once: g, or for walker q2 itself.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._kernels import sealed
from .clifford_rep import build_pairings, build_rep
from .ka_core import Signature
from .spinor_square import square_test

POINT_BLOCK = 256  # sample points that _halton draws and run_campaign scores per block


def _pointwise(fn):
    """Lift a one-point callable (an in_domain test) to (..., d) stacks, point by point."""
    if fn is None:
        return None

    def lifted(x):
        x = np.asarray(x, dtype=float)
        # rows of different shapes raise ValueError
        values = np.array([fn(p) for p in x.reshape(-1, x.shape[-1])], dtype=float)
        return values.reshape(x.shape[:-1] + values.shape[1:])

    return lifted


def _zeros(x, *shape):
    return np.zeros(np.shape(x)[:-1] + shape)


def _embed(x, shape, *entries):
    """Arrays of the given shape per point of x, zero but for the (index, value) entries."""
    out = _zeros(x, *shape)
    for index, value in entries:
        index = index if isinstance(index, tuple) else (index,)
        out[(Ellipsis, *index) + (slice(None),) * (len(shape) - len(index))] = value
    return out


def _t(a, *perm):
    """Transpose the trailing len(perm) axes of a; the point axes stay in front."""
    lead = a.ndim - len(perm)
    return a.transpose(*range(lead), *(lead + p for p in perm))


def _max_abs(a, axes):
    """max |a| over the last `axes` (component) axes: one value per point."""
    return np.abs(a).max(axis=tuple(range(-axes, 0)))


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _closed(parts):
    """The jet function of closed forms: parts(x) yields the value at the (..., d) stack x,
    then its partials, each computed only when the order asks for it."""

    def jet(x, order):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return tuple(itertools.islice(parts(x), order + 1))
        # a lone point as a stack of one: on its numpy scalars ** is libm's pow, whose last
        # bit can differ from the x * x of the same point in a stack
        return tuple(part[0] for part in jet(x[None], order))

    return jet


@dataclass(frozen=True, eq=False)
class Field:
    """A chart, profile or one-form on a coordinate chart, handed out as jets.

    jet(x, order) gives the value at the (..., d) stack x followed by its
    partials up to order, the derivative axes after the point axes: a
    chart's jet is (g, dg, d2g) with dg[m] = d_m g and d2g[m, n] = d_m d_n
    g, a one-form's (omega, J) with J[i, j] = d_i omega_j.  in_domain, if
    given, restricts the field: it maps the stack x to one bool per point.
    """

    jet: Callable
    in_domain: Callable | None = None

    @classmethod
    def from_callable(cls, fn, in_domain=None):
        """Field of a one-point callable: its exact jets from one call per block
        (kaspin._jets, imported on first use); ValueError, naming the operation, on a block
        where fn's arithmetic has no exact rule."""

        def jet(x, order):
            from . import _jets

            return _jets.jet(fn, np.asarray(x, dtype=float), order)

        return cls(jet, in_domain=_pointwise(in_domain))

    def value(self, x):
        """The value part of the jet at x."""
        return self.jet(x, 0)[0]

    def contains(self, x):
        """Whether every point of the stack x lies in the field's domain."""
        return self.in_domain is None or bool(np.asarray(self.in_domain(x)).all())


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


def _matrix(a, axes, rows):
    """a with its last `axes` axes reshaped to (rows, -1); the point axes stay in front."""
    return a.reshape(a.shape[:a.ndim - axes] + (rows, -1))


def _christoffel(jet, ginv):
    """Gamma[..., k, i, j] = Gamma^k_ij: g^-1 times the braces d_i g_lj + d_j g_li - d_l g_ij."""
    braces = _t(jet[1], 1, 0, 2) + _t(jet[1], 1, 2, 0) - jet[1]
    return 0.5 * (ginv @ _matrix(braces, 3, braces.shape[-1])).reshape(braces.shape)


def _ricci(jet, ginv):
    """Ric_sn = d_r Gamma^r_ns - d_n Gamma^r_rs + Gamma^r_rl Gamma^l_ns - Gamma^r_nl Gamma^l_rs.

    From a chart jet (g, dg, d2g), d2g symmetric in its derivative axes,
    and g^-1, one product per term and no Riemann tensor.  With B the
    braces (Gamma = g^-1 B / 2) and m_s = g^-1 d_s g (tr m_s = 2 Gamma^r_rs):
    d_r Gamma^r_ns = g^rl d_r B_lns / 2 - c_b Gamma^b_ns with c_b = g^ra
    d_r g_ab, as d_r g^-1 = -g^-1 d_r g g^-1, and d_n Gamma^r_rs =
    (tr(g^-1 d_n d_s g) - tr(m_n m_s)) / 2.
    """
    _, dg, d2g = jet
    d = dg.shape[-1]
    gamma = _christoffel(jet, ginv)
    row = _matrix(ginv, 2, 1)  # g^rl as one row over (rl)
    m = ginv[..., None, :, :] @ dg
    # Gamma^r_rl Gamma^l_ns - c_b Gamma^b_ns: one row times Gamma
    linear = (0.5 * m.trace(axis1=-2, axis2=-1)[..., None, :]
              - row @ _matrix(dg, 3, d * d)) @ _matrix(gamma, 3, d)
    # p_ns = g^rl d_n d_r g_ls; 2 g^rl d_r B_lns = p_ns + p_sn - g^rl d_r d_l g_ns
    p = (row[..., None, :, :] @ _matrix(d2g, 3, d * d))[..., 0, :]
    second = _matrix(d2g, 4, d * d)  # traces: g^rl d_r d_l g_ns + tr(g^-1 d_n d_s g)
    traces = row @ second + _t(second @ _matrix(ginv, 2, d * d), 1, 0)
    squares = _matrix(m, 3, d) @ _t(_matrix(_t(m, 0, 2, 1), 3, d), 1, 0)  # tr(m_n m_s)
    swapped = _t(gamma, 1, 0, 2)  # Gamma^r_nl Gamma^l_rs is swapped times swapped
    quadratic = _matrix(swapped, 3, d) @ _matrix(swapped, 3, d * d)
    return _matrix(linear - 0.5 * traces, 2, d) - quadratic + 0.5 * (p + _t(p, 1, 0) + squares)


def _nabla(gamma, jet):
    """(nabla omega)[..., i, j] = d_i omega_j - Gamma^k_ij omega_k from the jet (omega, d omega)."""
    lowered = jet[0][..., None, :] @ _matrix(gamma, 3, gamma.shape[-1])
    return jet[1] - _matrix(lowered, 2, gamma.shape[-1])


_COFRAME = sealed(1 << np.arange(4))  # the masks of dx^0, ..., dx^3
_LORENTZ = Signature(3, 1)  # the algebra of the orthonormal coframe, e^4 timelike


def _product(table, a, masks, b):
    """a <> b (table "sign") or a ^ b ("wedge_sign") of stacks, a given by its coefficients of
    the masks: out[K] = sum_I a[I] table[I, K] b[I xor K] over Signature(3, 1)'s tables, whose
    wedge signs, as every signature's, do not depend on the metric."""
    t = _LORENTZ.tables()
    return np.einsum("...i,ik,...ik->...k", a, getattr(t, table)[masks], b[..., t.xor[masks]])


def _exterior(m):
    """The exterior powers of the (..., 4, 4) matrices m as one (..., 16, 16) map of stacks.

    Row I is the wedge of the rows of m that I names, so with dx^i = sum_a
    m[i, a] e^a, c @ _exterior(m) is the stack c over dx^I rewritten over e^J.
    """
    t = _LORENTZ.tables()
    # built up grade by grade from the lowest row of I and the already built rest
    out = np.zeros(m.shape[:-2] + (16, 16))
    out[..., 0, 0] = 1.0
    for k in range(1, 5):
        masks = np.flatnonzero(t.grade == k)
        low = masks & -masks
        out[..., masks, :] = _product("wedge_sign", m[..., np.log2(low).astype(int), :], _COFRAME,
                                      out[..., masks ^ low, :])
    return out


# ---------------------------------------------------------------------------
# parabolic Killing pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KillingData:
    """Candidate pair of one-form fields with rate lam.

    u must be nowhere-zero null, l unit spacelike and orthogonal to u; l is
    fixed only up to l + f*u, which leaves u + u ^ l unchanged.
    """

    u: Field
    l: Field
    lam: float

    def __post_init__(self):
        _finite("lam", self.lam)


_TIME_LAST = sealed(np.array([1, 2, 3, 0]))  # eigh's ascending order, its negative eigenvalue last
_LO, _HI = map(sealed, np.triu_indices(4, 1))
_TWO = sealed((1 << _LO) | (1 << _HI))  # the masks of e^a ^ e^b, a < b, in _LO, _HI order
_THREE = sealed(15 ^ _COFRAME)  # the masks of the duals of e^1, ..., e^4
# [u, m flattened] @ _POLYFORM = u + sum_ab m_ab e^a ^ e^b, each entry one exact sum of two terms
_POLYFORM = np.zeros((20, 16))
_POLYFORM[range(4), _COFRAME] = 1.0
_POLYFORM[4 + 4 * _LO + _HI, _TWO] = 1.0
_POLYFORM[4 + 4 * _HI + _LO, _TWO] = -1.0
_POLYFORM = sealed(_POLYFORM)


def _coframe(g):
    """(E, E^-1) with g = E^T diag(1, 1, 1, -1) E: eigh(g), its one negative eigenvalue last."""
    w, v = np.linalg.eigh(g)
    if (w[..., 0] >= 0.0).any() or (w[..., 1] <= 0.0).any():
        raise ValueError("eigh(g) finds no Lorentzian coframe at the sample point")
    root, v = np.sqrt(np.abs(w[..., _TIME_LAST])), v[..., _TIME_LAST]
    return _t(v, 1, 0) * root[..., :, None], v / root[..., None, :]


def _polyform(one, two):
    """one + sum_ab two_ab e^a ^ e^b in Signature(3, 1): a ^ b is the antisymmetric _outer(a, b)."""
    return np.concatenate((one, two.reshape(two.shape[:-2] + (16,))), axis=-1) @ _POLYFORM


@functools.cache
def _commutator_rows(masks):
    """(C, rows) with A <> a - a <> A = A @ (C * a[..., rows]) for A over the tuple of masks.

    A holds the coefficients of the masks, in their order.  Row J of C is
    sign[J, K] - sign[J ^ K, K]: e_J <> e_(J ^ K) less e_(J ^ K) <> e_J.
    """
    t = _LORENTZ.tables()
    masks = np.array(masks)
    rows = t.xor[masks]
    return sealed(t.sign[masks] - t.sign[rows, np.arange(16)]), sealed(rows)


def _pair_frame(jet, ginv, u_jet, l_jet):
    """(E, E^-1, X, alpha, D, size): the pair (u, l) in the orthonormal coframe E of eigh(g).

    g = E^T diag(1, 1, 1, -1) E, and a one-form's frame components are
    omega @ E^-1; row i of X is the one-form dual to d/dx^i.  size = max|u
    + u ^ l| (1 where it vanishes), alpha = (u + u ^ l) / size and row i of
    D is nabla_i (u + u ^ l) / size.
    """
    frame, inverse = _coframe(jet[0])
    gamma = _christoffel(jet, ginv)
    u, l = ((omega[..., None, :] @ inverse)[..., 0, :] for omega in (u_jet[0], l_jet[0]))
    du, dl = (_nabla(gamma, omega) @ inverse for omega in (u_jet, l_jet))
    alpha = _polyform(u, _outer(u, l))
    size = _max_abs(alpha, 1)
    size = np.where(size == 0.0, 1.0, size)
    d_alpha = _polyform(du, _outer(du, l[..., None, :]) + _outer(u[..., None, :], dl))
    return (frame, inverse, jet[0] @ inverse, alpha / size[..., None],
            d_alpha / size[..., None, None], size)


def _ka_defect(alpha, d_alpha, connection, masks):
    """Row i is d_alpha[i] - (A_i <> alpha - alpha <> A_i), A_i = connection[..., i, :].

    A_i is held as the coefficients of the masks (_COFRAME or _TWO).
    """
    table, rows = _commutator_rows(tuple(masks.tolist()))
    return d_alpha - connection @ (table * alpha[..., rows])


def _square_residual(alpha):
    """The minus-pairing square test's worst residual per row of alpha, 1 where alpha = 0."""
    fit, _, r_sym = square_test(build_pairings(build_rep(_LORENTZ)), "minus", alpha.reshape(-1, 16))
    square = np.where(fit.scale == 0.0, 1.0, np.maximum(r_sym, fit.residual))
    return square.reshape(alpha.shape[:-1])


def _pair_jets(ps, x):
    """The order-1 chart jet at x, g^-1, the u and l jets of ps's pair and its lam.

    The pair is ps.killing where one is given; a surface preset without one
    has u = K dv and l = -dK/(2 lam K) from the block's one read of K.
    """
    kd = ps.killing
    if kd is not None:
        return (*_chart_jet(ps.chart, x, 1), kd.u.jet(x, 1), kd.l.jet(x, 1), kd.lam)
    wd = ps.walker
    jet, ginv, _, k, _ = _chart_jet(ps.chart, x, 1, wd, 2)
    return (jet, ginv, *_surface_pair(wd.lam, x, k), wd.lam)


def _score_killing(ps, x):
    """The pair system on alpha = u + u ^ l in an orthonormal coframe.

    square is the minus-pairing square test's worst residual (1 where alpha
    = 0), ka the defect of nabla_X alpha = (lam/2)(X <> alpha - alpha <> X)
    over max|alpha| (README, "How campaigns are scored").
    """
    *jets, lam = _pair_jets(ps, x)
    _, _, dual, alpha, d_alpha, _ = _pair_frame(*jets)
    defect = _ka_defect(alpha, d_alpha, (0.5 * lam) * dual, _COFRAME)
    return {"killing.square": _square_residual(alpha), "killing.ka": _max_abs(defect, 2)}


# ---------------------------------------------------------------------------
# surface reduction for F dv^2 + 2 K dv du + q2 charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WalkerData:
    """Surface data for the chart F dv^2 + 2 K dv du + q2: profiles F, K and the metric q2."""

    F: Field
    K: Field
    q2: Field
    lam: float

    def __post_init__(self):
        if _finite("lam", self.lam) == 0.0:
            raise ValueError("lam must be nonzero")


def walker_chart(wd):
    """Assemble the four-dimensional chart; coordinates (v, u, x, y)."""
    q2 = wd.q2
    domain = None if q2.in_domain is None else (lambda x: q2.in_domain(_surface(x)))
    return Field(lambda x, order: _walker_jets(wd, x, order, order)[0], in_domain=domain)


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
    return np.asarray(x, dtype=float)[..., 2:]  # (x, y) of chart points (v, u, x, y)


def _nonzero(k):
    if (np.abs(k[0]) < 1e-12).any():
        raise ValueError("profile K must be nowhere zero")
    return k


def _score_walker(ps, x):
    """The second-order K equations of the pair system at the surface points of x; F is free."""
    wd, s = ps.walker, _surface(x)
    lam = wd.lam
    # K first, checked nowhere zero, then q2 in its domain
    k, (q, qinv) = _nonzero(wd.K.jet(s, 2)), _chart_jet(wd.q2, s, 1)
    K, d_k = k[0], k[1]
    hess_k = _nabla(_christoffel(q, qinv), k[1:])
    k2 = K[..., None, None]
    hess_res = _max_abs(hess_k - _outer(d_k, d_k) / (2.0 * k2) - 2.0 * lam**2 * k2 * q[0], 2)
    lap_res = np.abs((qinv @ hess_k).trace(axis1=-2, axis2=-1) - 6.0 * lam**2 * K)
    return {"walker.hessian": hess_res, "walker.laplacian": lap_res}


def _score_einstein(ps, x):
    """Ric + 3 lam^2 g over max|g|: lam is the walker data's on a surface preset, whose K
    must be nowhere zero, and 0 (Ricci-flat) on any other.

    On a surface preset this is the whole Einstein reduction: the F equation and Ric(q2) +
    lam^2 q2 are components of E = Ric + 3 lam^2 g plus terms in |l|^2 - 1, which killing's
    square test holds (README, "How campaigns are scored").
    """
    wd = ps.walker
    lam = 0.0 if wd is None else wd.lam
    jet, ginv, *surface = _chart_jet(ps.chart, x, 2, wd)
    defect = _ricci(jet, ginv) + 3.0 * lam**2 * jet[0]
    out = {"einstein.chart": _max_abs(defect, 2) / _max_abs(jet[0], 2)}
    if wd is not None:
        _nonzero(surface[1])
    return out


def _surface_pair(lam, x, k):
    """(u, du) and (l, dl) at chart points x from the 2-jet k of K.

    u = K dv and l = -dK/(2 lam K), whose Jacobian d_i l_a =
    (d_i K d_a K / K - d_i d_a K)/(2 lam K) never squares K's gradient.
    """
    K = k[0][..., None]
    d_surface = (_outer(k[1] / K, k[1]) - k[2]) / (2.0 * lam * K[..., None])
    u = (_embed(x, (4,), (0, k[0])), _embed(x, (4, 4), (np.s_[2:, 0], k[1])))
    l = (_embed(x, (4,), (np.s_[2:], -k[1] / (2.0 * lam * K))),
         _embed(x, (4, 4), (np.s_[2:, 2:], d_surface)))
    return u, l


def walker_killing_data(wd):
    """The pair (u, l) of _surface_pair, from K's 2-jet alone, on the assembled chart.

    Each field's jet reads K once, for its value and Jacobian together.
    """

    def field(which):
        def jet(x, order):
            return _surface_pair(wd.lam, x, wd.K.jet(_surface(x), 2))[which][:order + 1]

        return Field(jet)

    return KillingData(field(0), field(1), wd.lam)


# ---------------------------------------------------------------------------
# heterotic supersymmetry residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HeteroticConfig:
    """Background fields entering the supersymmetry relations, on the preset's chart.

    varphi is the dilaton one-form (required closed), H the three-form
    flux (None for zero) and gauge the (sign_a, F_a) pairs of the gauge
    curvatures F_a and their coefficients in the F wedge F source of the
    Bianchi identity.  H and each F_a are Fields of (..., 16) coefficient
    stacks.
    """

    varphi: Field
    H: Field | None = None
    gauge: tuple = ()


def _flux(hc, x):
    """(H, dH) at x as coefficient stacks, dH = sum_i dx^i ^ d_i H from H's 1-jet; 0 without H."""
    if hc.H is None:
        return _zeros(x, 16), _zeros(x, 16)
    h, dh = hc.H.jet(x, 1)
    return h, _product("wedge_sign", np.eye(4), _COFRAME, dh).sum(axis=-2)


def _bianchi(d_h, gauge):
    """max |dH - sum_a sign_a * F_a ^ F_a|, from dH and the (sign_a, F_a stack) pairs."""
    source = 0.0
    for sign, two_form in gauge:
        source = source + sign * _product("wedge_sign", two_form, np.s_[:], two_form)
    return _max_abs(d_h - source, 1)


def _gauge(hc, x):
    """(sign_a, F_a at x) for each gauge curvature."""
    return [(sign, field.value(x)) for sign, field in hc.gauge]


def _score_heterotic(ps, x):
    """The heterotic system on the pair's alpha = u + u ^ l at x.

    In the orthonormal coframe of the killing check, where H, dH and the
    F_a are read through _exterior(E^-1): square is its square test;
    gravitino the defect of nabla_X alpha = -1/4 (i_X H <> alpha - alpha <>
    i_X H), dilatino (phi - H) <> alpha and gaugino the worst F_a <> alpha,
    each over max|alpha|.  rho_coclosed is |*dH| = |div *H|, the e^1234
    coefficient of dH, dphi_closed the antisymmetric part of d phi's
    Jacobian and bianchi the bianchi check's residual, both flux residuals
    from the one 1-jet of H (README, "How campaigns are scored").
    """
    hc = ps.heterotic
    jet, ginv, u_jet, l_jet, _ = _pair_jets(ps, x)
    _, inverse, dual, alpha, d_alpha, _ = _pair_frame(jet, ginv, u_jet, l_jet)
    phi_jet, (h, d_h), gauge = hc.varphi.jet(x, 1), _flux(hc, x), _gauge(hc, x)
    phi = (phi_jet[0][..., None, :] @ inverse)[..., 0, :]
    flux, gaugino, coclosed = _zeros(x, 16), _zeros(x), _zeros(x)
    if hc.H is not None or gauge:
        # row I of _exterior(E^-1) is dx^I in the coframe
        forms = np.stack([h, d_h, *(two_form for _, two_form in gauge)], axis=-2) @ _exterior(inverse)
        flux[..., _THREE], coclosed = forms[..., 0, _THREE], np.abs(forms[..., 1, 15])
        gaugino = np.abs(_product("sign", forms[..., 2:, _TWO], _TWO, alpha[..., None, :])).max(
            axis=(-2, -1), initial=0.0)
    # A_i = -1/4 i_(X_i) H, the grade-2 part of X_i <> H
    connection = -0.25 * _product("sign", dual, _COFRAME, flux[..., None, :])[..., _TWO]
    jac = phi_jet[1]
    return {
        "heterotic.square": _square_residual(alpha),
        "heterotic.gravitino": _max_abs(_ka_defect(alpha, d_alpha, connection, _TWO), 2),
        "heterotic.dilatino": _max_abs(_product("sign", phi, _COFRAME, alpha)
                                       - _product("sign", flux[..., _THREE], _THREE, alpha), 1),
        "heterotic.gaugino": gaugino,
        "heterotic.rho_coclosed": coclosed,  # |(dH)_0123 det E^-1|
        "heterotic.dphi_closed": _max_abs(jac - _t(jac, 1, 0), 2),
        "heterotic.bianchi": _bianchi(d_h, gauge),
    }


def _score_bianchi(ps, x):
    """Max norm of dH - sum_a sign_a * F_a ^ F_a at x, dH from H's 1-jet."""
    hc = ps.heterotic
    return {"bianchi.modified": _bianchi(_flux(hc, x)[1], _gauge(hc, x))}


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, kw_only=True)
class Preset:
    """Named chart family with the field data its campaigns need; fields by keyword only.

    A preset with walker data is a surface preset: its chart is walker_chart(walker),
    derived at every construction and replacing any chart passed beside it, so a
    copy with other walker data (dataclasses.replace) scores that data's chart.
    Any other preset needs its chart.
    """

    name: str
    params: dict
    sample_box: tuple
    chart: Field | None = None
    killing: KillingData | None = None  # a pair written by hand; a surface preset derives its own
    walker: WalkerData | None = None
    heterotic: HeteroticConfig | None = None

    def __post_init__(self):
        if self.walker is not None:
            object.__setattr__(self, "chart", walker_chart(self.walker))
        elif self.chart is None:
            raise ValueError("a preset needs a chart or walker data")


_BOX_FLAT = ((-2.0, 2.0),) * 4
_BOX_HALF = ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0), (0.3, 3.0))
_BOX_DEFORMED = ((-2.0, 2.0), (-2.0, 2.0), (-1.5, 1.5), (0.3, 3.0))


def _check_keys(name, params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise ValueError(f"unknown parameters for {name}: {sorted(extra)}")


def _finite(name, value):
    """value as a finite float; true, strings, lists and None are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _count(name, value):
    """value as a positive int; bools, floats and strings are not counts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


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


def _numbers(name, value, *shape):
    """value as nested tuples of finite floats: lists or tuples of numbers, of the given shape."""
    if not shape:
        return _finite(name, value)
    if not isinstance(value, (list, tuple)) or len(value) != shape[0]:
        kind = "numbers" if len(shape) == 1 else "lists"
        raise ValueError(f"{name} must be a list of {shape[0]} {kind}, got {value!r}")
    return tuple(_numbers(name, v, *shape[1:]) for v in value)


def _poincare_half_plane(lam):
    """Hyperbolic half-plane metric delta/(lam*y)^2 with closed derivatives."""

    @_closed
    def metric(s):
        y = s[..., 1]

        def conformal(factor, power):
            return factor * np.eye(2) / (lam**2 * y**power)[..., None, None]

        yield np.eye(2) / ((lam * y) ** 2)[..., None, None]
        yield _embed(s, (2, 2, 2), (1, conformal(-2.0, 3)))
        yield _embed(s, (2, 2, 2, 2), ((1, 1), conformal(6.0, 4)))

    return Field(metric, in_domain=lambda s: s[..., 1] > 0.0)


def _inverse_square_profile(c0):
    @_closed
    def profile(s):
        y = s[..., 1]
        yield c0 / y**2
        yield _embed(s, (2,), (1, -2.0 * c0 / y**3))
        yield _embed(s, (2, 2), ((1, 1), 6.0 * c0 / y**4))

    return Field(profile)


def _constant(value):
    """Field with the same value, of any shape, at every point: its partials are zero."""
    value = np.asarray(value, dtype=float)

    @_closed
    def constant(x):
        yield _zeros(x, *value.shape) + value
        for k in itertools.count(1):
            yield _zeros(x, *(4,) * k, *value.shape)

    return Field(constant)


def _preset_minkowski(params):
    _check_keys("minkowski", params, set())
    kd = KillingData(u=_constant([1.0, 0.0, 0.0, 1.0]), l=_constant([0.0, 1.0, 0.0, 0.0]), lam=0.0)
    return Preset(name="minkowski", params={}, sample_box=_BOX_FLAT,
                  chart=_constant(np.diag([1.0, 1.0, 1.0, -1.0])), killing=kd)


def _preset_ads4(params):
    _check_keys("ads4", params, {"lam"})
    lam = _rate(params)
    profile = _inverse_square_profile(1.0 / lam**2)
    wd = WalkerData(F=profile, K=profile, q2=_poincare_half_plane(lam), lam=lam)
    return Preset(name="ads4", params={"lam": lam}, sample_box=_BOX_HALF, walker=wd)


def _preset_poly(params):
    _check_keys("ads4-deformed-poly", params, {"lam", "a"})
    lam = _rate(params)
    a1, a2, a3, a4 = _numbers("a", params.get("a", (1.0, 0.5, 0.2, 0.1)), 4)

    @_closed
    def profile_f(s):
        # F = linear(x) * rest(y)
        y = s[..., 1]
        linear = a1 + a2 * s[..., 0]
        rest = a3 * y + a4 / y**2
        yield linear * rest
        slope = a3 - 2.0 * a4 / y**3  # d rest / dy
        yield _embed(s, (2,), (0, a2 * rest), (1, linear * slope))
        cross = a2 * slope
        yield _embed(s, (2, 2), ((0, 1), cross), ((1, 0), cross),
                     ((1, 1), linear * 6.0 * a4 / y**4))

    wd = WalkerData(F=Field(profile_f), K=_inverse_square_profile(0.5),
                    q2=_poincare_half_plane(lam), lam=lam)
    return Preset(name="ads4-deformed-poly", params={"lam": lam, "a": [a1, a2, a3, a4]},
                  sample_box=_BOX_DEFORMED, walker=wd)


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
    limit = math.log(np.finfo(float).max) / 3.0  # curvature squares F ~ exp(c |x|), |x| <= 1.5
    if c > limit:
        raise ValueError(f"c {c!r} is out of range: exp(c * x) overflows once squared on the "
                         f"sample box |x| <= 1.5; c must be at most {limit:.2f}")
    a1, a2, a3, a4 = _numbers("a", params.get("a", (1.0, 1.0, 1.0, 0.0)), 4)

    @_closed
    def profile_f(s):
        # F = even(x) * h(c y): the radial factor h and its z-derivatives, and the split
        # exponentials even and odd = d even / (c dx)
        z = c * s[..., 1]
        j1, j1p, y1, y1p = _spherical_bessel_1(z)
        h = a3 * y1 + a4 * j1
        hp = a3 * y1p + a4 * j1p
        grow = a1 * np.exp(c * s[..., 0])
        decay = a2 * np.exp(-c * s[..., 0])
        even, odd = grow + decay, grow - decay
        yield even * h
        yield _embed(s, (2,), (0, c * odd * h), (1, c * even * hp))
        # order-one spherical equation gives the second derivative
        hpp = -(2.0 / z) * hp - (1.0 - 2.0 / z**2) * h
        cross = c**2 * odd * hp
        yield _embed(s, (2, 2), ((0, 0), c**2 * even * h), ((0, 1), cross), ((1, 0), cross),
                     ((1, 1), c**2 * even * hpp))

    wd = WalkerData(F=Field(profile_f), K=_inverse_square_profile(0.5),
                    q2=_poincare_half_plane(lam), lam=lam)
    return Preset(name="ads4-deformed-bessel", params={"lam": lam, "c": c, "a": [a1, a2, a3, a4]},
                  sample_box=_BOX_DEFORMED, walker=wd)


def _preset_walker_generic(params):
    # s_frak, a gauge root no check reads any more, is accepted and ignored for older callers
    _check_keys("walker-generic", params, {"lam", "F", "K", "q2", "s_frak"})
    lam = _rate(params)
    if not all(key in params for key in ("F", "K", "q2")):
        raise ValueError(
            "walker-generic requires Python callbacks for F, K, and q2; "
            "it cannot be built from serialized parameters"
        )
    # a Field is taken as it is; any other callback takes one surface point
    fields = {key: params[key] for key in ("F", "K", "q2")}
    for key, obj in fields.items():
        if not isinstance(obj, Field):
            if not callable(obj):
                raise ValueError(f"walker-generic {key} must be a Field or a callable, got {obj!r}")
            fields[key] = Field.from_callable(obj)
    wd = WalkerData(**fields, lam=lam)
    return Preset(name="walker-generic", params={"lam": lam}, sample_box=_BOX_HALF, walker=wd)


def _preset_ppwave(params):
    _check_keys("heterotic-ppwave", params, {"amp", "q0", "omega"})
    amp = _finite("amp", params.get("amp", 0.3))
    q0 = np.array(_numbers("q0", params.get("q0", ((1.0, 0.0), (0.0, 1.0))), 2, 2))
    if np.max(np.abs(q0 - q0.T)) > 1e-12:
        raise ValueError("q0 must be a symmetric 2x2 matrix")
    if q0[0, 0] <= 0.0 or np.linalg.det(q0) <= 0.0:
        raise ValueError("q0 must be positive definite")
    omega = _numbers("omega", params.get("omega", (0.5, 0.3, 0.0)), 3)

    def phase(v):
        return amp * (1.0 - np.cos(v))

    @_closed
    def metric(x):
        v = x[..., 0]
        rate = amp * np.sin(v)  # d phase / dv
        stretch = np.exp(2.0 * phase(v))

        def conformal(factor):
            """factor * exp(2 phase(v)) * q0 in the transverse block, per point."""
            return (factor * stretch)[..., None, None] * q0

        yield _embed(x, (4, 4), ((0, 1), 1), ((1, 0), 1), (np.s_[2:, 2:], conformal(1.0)))
        yield _embed(x, (4, 4, 4), (np.s_[0, 2:, 2:], conformal(2.0 * rate)))
        factor = 2.0 * amp * np.cos(v) + 4.0 * rate**2
        yield _embed(x, (4, 4, 4, 4), (np.s_[0, 0, 2:, 2:], conformal(factor)))

    transverse = q0[:, 0] / math.sqrt(q0[0, 0])

    @_closed
    def partner(x):
        v = x[..., 0]
        root = np.exp(phase(v))
        yield _embed(x, (4,), (np.s_[2:], root[..., None] * transverse))
        yield _embed(x, (4, 4), (np.s_[0, 2:], (amp * np.sin(v) * root)[..., None] * transverse))

    @_closed
    def dilaton(x):
        v = x[..., 0]
        yield _embed(x, (4,), (0, omega[0] + omega[1] * v + omega[2] * v**2))
        yield _embed(x, (4, 4), ((0, 0), omega[1] + 2.0 * omega[2] * v))

    kd = KillingData(u=_constant([1.0, 0.0, 0.0, 0.0]), l=Field(partner), lam=0.0)
    hc = HeteroticConfig(varphi=Field(dilaton))
    return Preset(
        name="heterotic-ppwave",
        params={"amp": amp, "q0": q0.tolist(), "omega": list(omega)},
        sample_box=_BOX_FLAT, chart=Field(metric), killing=kd, heterotic=hc,
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

# the data a check reads: (its name, the preset fields any one of which carries it)
_PAIR = ("pair", ("killing", "walker"))
_SURFACE = ("surface", ("walker",))
_BACKGROUND = ("heterotic", ("heterotic",))
# check -> (its evaluator (ps, x) -> {report key: one value per point}, the data it reads)
_CHECKS = {
    "killing": (_score_killing, (_PAIR,)),
    "einstein": (_score_einstein, ()),
    "walker": (_score_walker, (_SURFACE,)),
    "heterotic": (_score_heterotic, (_BACKGROUND, _PAIR)),
    "bianchi": (_score_bianchi, (_BACKGROUND,)),
}


@functools.cache
def _halton_constants():
    """(rows, weights): the (places, base) digit rows of bases 2, 3, 5, 7, and the weight
    base^-(place + 1) of each entry of the rows concatenated, then 0.0 for a padding digit.
    Base b keeps the ceil(54 / log2 b) - 1 places a double resolves.
    """
    rows, weights = [], []
    for base in (2, 3, 5, 7):
        row = [1.0 / base]  # by repeated division, as SciPy accumulates the weights
        while len(row) < math.ceil(54 / math.log2(base)) - 1:
            row.append(row[-1] / base)
        rows.append(sealed(np.tile(np.arange(base), (len(row), 1))))
        weights += [w for w in row for _ in range(base)]
    return tuple(rows), sealed(np.array(weights + [0.0]))


@functools.lru_cache(maxsize=4)
def _halton_digits(start, stop):
    """(places, points, bases) indices of the points start..stop-1 into _halton's digits:
    digit i // b^j % b of point i at place j of base b is entry j b + digit of b's row,
    and the places past a base's own read the padding digit. Cached per block.
    """
    rows, weights = _halton_constants()
    pad, first, points = weights.size - 1, 0, np.arange(start, stop)
    table = np.full((len(rows[0]), stop - start, len(rows)), pad, np.min_scalar_type(pad))
    for col, row in enumerate(rows):
        place, base = np.arange(len(row))[:, None], row.shape[1]
        table[:len(row), :, col] = first + base * place + points // base**place % base
        first += row.size
    return sealed(table)


def _halton(n, seed):
    """n points of the scrambled Halton sequence in [0, 1)^4, bases 2, 3, 5, 7.

    Owen's randomized Halton (arXiv 1706.02808), bit for bit as SciPy's
    ``qmc.Halton(d=4, scramble=True, seed=seed).random(n)``: each base
    shuffles its digits per place, down to the places a double resolves,
    and point i sums its permuted digits weighted by base^-(place + 1).
    A call weights the seeded permutations once and gathers every digit at once.
    """
    rng = np.random.default_rng(seed)
    rows, weights = _halton_constants()
    perms = [rng.permuted(row, axis=1) for row in rows]
    digits = np.concatenate([*perms, [0]], axis=None) * weights  # the padding digit 0 last
    out = np.empty((n, 4))
    for start in range(0, n, POINT_BLOCK):  # a block at a time, so memory is flat in n
        stop = min(start + POINT_BLOCK, n)
        # a sum along the slow (places) axis adds one term at a time, left to right as
        # SciPy's cumsum, so no point moves in its last bit; padded places add 0.0
        digits.take(_halton_digits(start, stop)).sum(axis=0, out=out[start:stop])
    return out


def _perturbed(ps, amount):
    # a bump of F alone would move only the gauge of l, so surface presets bump K
    if ps.walker is not None:
        base = ps.walker.K

        def bumped(s, order):
            k = base.jet(s, order)
            return (k[0] + amount,) + k[1:]  # value + amount, the same derivatives

        return replace(ps, walker=replace(ps.walker, K=replace(base, jet=bumped)))
    factor = 1.0 + amount
    if factor <= 0.0:
        raise ValueError(f"perturb {amount!r} rescales the metric by 1 + perturb = {factor!r} <= 0")
    old = ps.chart
    return replace(ps, chart=replace(
        old, jet=lambda x, order: tuple(factor * part for part in old.jet(x, order))))


def _summary(vals, pts):
    listed, worst = vals.tolist(), int(vals.argmax())
    # the mean is a left-to-right sum, as when the points were scored one by one
    mean = sum(listed) / len(listed)
    return {"max": listed[worst], "mean": mean, "worst_point": pts[worst].tolist()}


def require_check(ps, check):
    """Raise ValueError unless check is known and ps carries the data it scores."""
    if check not in _CHECKS:
        raise ValueError(f"unknown check {check!r}")
    for data, fields in _CHECKS[check][1]:
        if all(getattr(ps, field) is None for field in fields):
            raise ValueError(f"preset {ps.name} carries no {data} data")


def score(ps, check, x):
    """The residuals of check at the chart points x of ps: report key -> one value per point.

    x is a non-empty (..., 4) stack of finite chart points, one point being
    the stack shape ().  Raises ValueError for other points and, as
    require_check does, for a check ps cannot be scored on.  Overflow,
    division by zero, an invalid operation or a residual that comes out
    inf or nan raises FloatingPointError, so no residual is inf or nan.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (4,) or not x.size:
        raise ValueError(f"chart points must be a non-empty (..., 4) stack, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("chart points must be finite")
    require_check(ps, check)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        residuals = _CHECKS[check][0](ps, x)
    for key, value in residuals.items():
        # a nan sets no floating-point flag; max gives the nan, else an inf
        if not np.isfinite(value).all():
            raise FloatingPointError(f"residual {key} is not finite: {float(np.max(value))!r}")
    return residuals


def run_campaign(ps, check, n_points=20, seed=0, tol=1e-6, perturb=0.0):
    """Score one residual family at quasi-random points of the sample box.

    n_points must be a positive integer, seed a non-negative integer and
    tol a positive finite number (ValueError otherwise).  Returns a
    JSON-ready report with per-residual max, mean and sample point of the
    max, and verdict "pass" when every max is within tol.
    perturb biases the preset first, as a detection control: K + perturb
    on a surface preset, the metric times 1 + perturb elsewhere.  Points are
    scored through score in blocks of POINT_BLOCK, so an unknown check or
    missing data raises ValueError, and an overflow or a residual that
    comes out inf or nan FloatingPointError: no report holds inf or nan.
    """
    n_points, perturb = _count("n_points", n_points), _finite("perturb", perturb)
    tol = _positive("tol", tol)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if perturb:
        ps = _perturbed(ps, perturb)
    lower, upper = np.asarray(ps.sample_box, dtype=float).T
    pts = _halton(n_points, seed) * (upper - lower) + lower

    blocks = [score(ps, check, pts[start:start + POINT_BLOCK])
              for start in range(0, n_points, POINT_BLOCK)]
    residuals = {name: _summary(np.concatenate([block[name] for block in blocks]), pts)
                 for name in blocks[0]}
    verdict = "pass" if all(r["max"] <= tol for r in residuals.values()) else "fail"
    # a copy, so a caller editing the report leaves the preset's params as they are
    return {"preset": ps.name, "params": copy.deepcopy(ps.params), "points": n_points,
            "residuals": residuals, "verdict": verdict, "seed": int(seed)}
