"""Normal forms for squares in low-dimensional signatures.

In Lorentzian signature (3,1) every nonzero square under the minus
pairing is alpha = u + (u wedge l) for a parabolic pair: a nonzero null
one-form u and a unit spacelike l orthogonal to it, with l free up to
shifts along u.  This module converts between pairs, polyforms, and the
degenerate flag span(u) < span(u, l) < u-perp, decides the three
equivalence relations on pairs, and fixes the shift gauge against a
timelike direction.

Whether a polyform is a square is decided once, by the exact test
spinor_square.verify_square_conditions on the minus pairing, and
polyform_to_pair reads the pair off an accepted square.  Every other
check compares a residual at unit max-norm against DEFAULT_TOL, so no
verdict depends on the scale and no product over- or underflows.  The
functions read coefficient arrays through cached grade index vectors,
and u at unit scale, an exact even power of two as square_test reads
alpha, wherever its size would enter a quotient.

The orthonormal frame convention is e^1..e^3 spacelike with e^4
timelike in (3,1), and e^3, e^4 timelike in (2,2), where squares of
chiral spinors are exactly the self-dual or anti-self-dual two-forms of
zero norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import sealed
from .clifford_rep import build_pairings, build_rep
from .ka_core import Multivector, Signature, hodge_star, json_number, wedge
from .spinor_square import DEFAULT_TOL, verify_square_conditions

SIG_LORENTZ = Signature(3, 1)
SIG_NEUTRAL = Signature(2, 2)
_E4 = Multivector.basis(SIG_LORENTZ, (4,)).coeffs  # the timelike covector of the gauge


class _Grades(NamedTuple):
    ones: np.ndarray  # the one-form masks 1, 2, 4, ..., in basis order
    metric_ones: np.ndarray  # <e^i, e^i> at each one-form mask
    off_one: np.ndarray  # the masks outside grade 1
    metric: np.ndarray  # <e_I, e_I> at every mask


@lru_cache(maxsize=None)
def _grades(sig) -> _Grades:
    """Cached index and metric vectors of a signature's grades."""
    tables = sig.tables()
    ones = np.flatnonzero(tables.grade == 1)
    off_one = np.flatnonzero(tables.grade != 1)
    return _Grades(sealed(ones), sealed(tables.metric[ones]), sealed(off_one), tables.metric)


def _unit_gram(*coeffs) -> tuple | None:
    """(G, inv) with G[i, j] = h(a_i, a_j) inv_i inv_j and inv_i = 1 / |a_i| (max-norm).

    The a_i are coefficient arrays. So h(a, a) = c reads G[i, i] = c inv_i^2;
    a zero a_i has inv_i = inf. None unless every a_i is finite with no part
    outside grade 1 at unit max-norm.
    """
    grades = _grades(SIG_LORENTZ)
    coeffs = np.array(coeffs)
    size = abs(coeffs)
    norms = size.max(axis=1).tolist()
    off = size[:, grades.off_one].max(axis=1).tolist()
    # a nan fails the bound, an inf the finite norm
    if not all(o <= DEFAULT_TOL * n < math.inf for o, n in zip(off, norms)):
        return None
    hat = coeffs / np.array([[n or 1.0] for n in norms])
    return (hat * grades.metric) @ hat.T, [1.0 / n if n else math.inf for n in norms]


def _at_unit_scale(coeffs) -> np.ndarray:
    """coeffs times the even power of two that takes their max-norm into [0.5, 2).

    square_test reads alpha so; in the normal range the product is exact.
    """
    return np.ldexp(coeffs, -(math.frexp(abs(coeffs).max())[1] & -2))


@dataclass(frozen=True, eq=False)
class ParabolicPair:
    """Null one-form u with a unit spacelike l orthogonal to it."""

    u: Multivector
    l: Multivector

    def __post_init__(self):
        u, l = self.u, self.l
        if u.sig != SIG_LORENTZ or l.sig != SIG_LORENTZ:
            raise ValueError("parabolic pairs live in signature (3,1)")
        unit = _unit_gram(u.coeffs, l.coeffs)
        if unit is None:
            raise ValueError("pair members must be one-forms")
        G, (_, l_inv) = unit
        if not u.coeffs.any():
            raise ValueError("u must be nonzero")
        if abs(G[0, 0]) > DEFAULT_TOL:
            raise ValueError("u must be null")
        if abs(G[1, 1] - l_inv * l_inv) > DEFAULT_TOL:
            raise ValueError("l must have unit norm")
        if abs(G[0, 1]) > DEFAULT_TOL:
            raise ValueError("u and l must be orthogonal")

    def to_json(self) -> str:
        payload = {
            "u": list(self.u.one_form_components()),
            "l": list(self.l.one_form_components()),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text) if isinstance(text, str) else text
        if not all(isinstance(payload[name], list) for name in ("u", "l")):
            raise ValueError("pair members u and l must be lists of JSON numbers")
        u, l = ([json_number(f"{name} component", v) for v in payload[name]] for name in ("u", "l"))
        return cls(Multivector.covector(SIG_LORENTZ, u), Multivector.covector(SIG_LORENTZ, l))


@dataclass(frozen=True, eq=False)
class DegenerateFlag:
    """Nested spans W1 < W2 < W3 on which the metric degenerates."""

    W1: tuple
    W2: tuple
    W3: tuple


def pair_to_polyform(pp: ParabolicPair) -> Multivector:
    """The square u + u /\\ l determined by a parabolic pair."""
    return pp.u + wedge(pp.u, pp.l)


def polyform_to_pair(alpha: Multivector) -> ParabolicPair:
    """Split a nonzero Lorentzian square into its parabolic pair.

    alpha is a square when verify_square_conditions accepts it under the
    minus pairing. u is its grade-1 part; l is extracted from the grade-2
    part by contracting with the basis covector seeing the largest metric
    component of u, then shifted into the gauge h*(l, e^4) = 0. Both are
    read at unit scale, so no square is too small for them.
    """
    if alpha.sig != SIG_LORENTZ:
        raise ValueError("expected a multivector in signature (3,1)")
    if not alpha.coeffs.any():
        raise ValueError("the zero square has no parabolic pair")
    report = verify_square_conditions(build_pairings(build_rep(SIG_LORENTZ)), "minus", alpha)
    if not report.is_square:
        raise ValueError(
            f"not a spinor square: symmetry residual {report.residual_symmetry:.3e}, "
            f"rank-one residual {report.residual_rank_one:.3e}"
        )
    grades = _grades(SIG_LORENTZ)
    ones = grades.ones
    hat = _at_unit_scale(alpha.coeffs)  # so 1 / r[pivot] is finite however small alpha is
    r = grades.metric_ones * hat[ones]
    pivot = int(abs(r).argmax())
    # contracting the basis covector e^m with the two-form omega reads one
    # row of the product's sign table: (e^m <> omega)[i] = sign[m, i] omega[m ^ i],
    # where omega[m ^ m] = 0: the scalar mask is outside grade 2
    m = ones[pivot]
    omega = np.where(ones == m, 0.0, hat[m ^ ones])
    l0 = np.zeros(len(hat))
    l0[ones] = SIG_LORENTZ.tables().sign[m, ones] * omega * (1.0 / r[pivot])
    # e^4 is a unit timelike direction and the null u of a square has
    # u_4 != 0, so normalize_gauge's checks hold: shift l at once
    return _shifted(alpha.grade(1), l0, _E4)


def pair_equivalent(a: ParabolicPair, b: ParabolicPair, mode: str) -> bool:
    """Equivalence of pairs: strong (u up to sign), plain (u up to
    scale), or weak (additionally l up to sign), always modulo shifts
    l -> l + c u."""
    if mode not in ("weak", "plain", "strong"):
        raise ValueError(f"unknown equivalence mode {mode!r}")
    ua, ub = a.u.one_form_components(), b.u.one_form_components()
    pivot = int(np.argmax(np.abs(ua)))
    # u_a scaled to pivot entry 1, u_b to unit max-norm: no ratio of their scales can overflow
    ref = ua[pivot]
    ua = ua / ref
    ub_hat = ub / np.max(np.abs(ub))
    if np.max(np.abs(ub_hat - ub_hat[pivot] * ua)) > DEFAULT_TOL:
        return False
    # u_b = +-u_a exactly when their pivot entries agree in size
    if mode == "strong" and abs(abs(ub[pivot]) - abs(ref)) > DEFAULT_TOL * abs(ref):
        return False
    etas = (1.0,) if mode in ("strong", "plain") else (1.0, -1.0)
    la, lb = a.l.one_form_components(), b.l.one_form_components()
    for eta in etas:
        diff = lb - eta * la
        if np.max(np.abs(diff - diff[pivot] * ua)) <= DEFAULT_TOL * np.max(np.abs(lb)):
            return True
    return False


def pair_to_flag(pp: ParabolicPair) -> DegenerateFlag:
    """The degenerate flag span(u) < span(u,l) < u-perp of a pair."""
    grades = _grades(SIG_LORENTZ)
    r = grades.metric_ones * pp.u.coeffs[grades.ones]
    pivot = int(abs(r).argmax())
    others = [j for j in range(4) if j != pivot]
    # row k is e^j - (r_j / r_pivot) e^pivot for the k-th j != pivot
    w3 = np.eye(len(pp.u.coeffs))[grades.ones[others]]
    w3[:, grades.ones[pivot]] = -r[others] / r[pivot]
    return DegenerateFlag((pp.u,), (pp.u, pp.l), tuple(Multivector(SIG_LORENTZ, w) for w in w3))


def normalize_gauge(pp: ParabolicPair, v: Multivector) -> ParabolicPair:
    """Shift l along u so that it is orthogonal to the timelike unit v."""
    if v.sig != SIG_LORENTZ:
        raise ValueError("signature mismatch")
    unit = _unit_gram(pp.u.coeffs, v.coeffs)
    if unit is None:
        raise ValueError("gauge direction must be a unit timelike one-form")
    G, (_, v_inv) = unit
    if abs(G[1, 1] + v_inv * v_inv) > DEFAULT_TOL:
        raise ValueError("gauge direction must be a unit timelike one-form")
    if abs(G[0, 1]) <= DEFAULT_TOL:
        raise ValueError("u is orthogonal to the gauge direction; bad input")
    return _shifted(pp.u, pp.l.coeffs, v.coeffs)


def _shifted(u: Multivector, l, v) -> ParabolicPair:
    """The pair (u, l + f u) with f such that h*(l + f u, v) = 0; l and v are coefficient arrays.

    f u is read with u at unit scale, where f cannot overflow.
    """
    metric, hat = _grades(SIG_LORENTZ).metric, _at_unit_scale(u.coeffs)
    f = -float(np.dot(l * metric, v)) / float(np.dot(hat * metric, v))
    return ParabolicPair(u, Multivector(SIG_LORENTZ, l + hat * f))


def check_22_chiral_square(alpha: Multivector) -> bool:
    """Whether alpha is a self-dual two-form of zero norm in (2,2).

    These are exactly the squares of negative-chirality spinors under
    the plus pairing. Each condition is read at unit max-norm; a
    non-finite alpha is none.
    """
    if alpha.sig != SIG_NEUTRAL:
        raise ValueError("expected a multivector in signature (2,2)")
    norm = alpha.norm_inf()
    if not 0.0 < norm < math.inf:
        return norm == 0.0
    a = alpha.coeffs / norm
    two = np.where(SIG_NEUTRAL.tables().grade == 2, a, 0.0)
    return bool(
        abs(a - two).max() <= DEFAULT_TOL
        and abs(hodge_star(Multivector(SIG_NEUTRAL, two)).coeffs - two).max() <= DEFAULT_TOL
        and abs(np.dot(two * SIG_NEUTRAL.tables().metric, two)) <= DEFAULT_TOL
    )

