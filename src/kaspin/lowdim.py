"""Normal forms for squares in low-dimensional signatures.

In Lorentzian signature (3,1) every nonzero square under the minus
pairing is alpha = u + (u wedge l) for a parabolic pair: a nonzero null
one-form u and a unit spacelike l orthogonal to it, with l free up to
shifts along u.  This module converts between pairs, polyforms, and the
degenerate flag span(u) < span(u, l) < u-perp, decides the three
equivalence relations on pairs, and fixes the shift gauge against a
timelike direction.

The orthonormal frame convention is e^1..e^3 spacelike with e^4
timelike in (3,1), and e^3, e^4 timelike in (2,2), where squares of
chiral spinors are exactly the self-dual or anti-self-dual two-forms of
zero norm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ka_core import (
    FormMetric,
    Multivector,
    Signature,
    hodge_star,
    wedge,
)

SIG_LORENTZ = Signature(3, 1)
SIG_NEUTRAL = Signature(2, 2)
DEFAULT_TOL = 1e-9
_E4 = Multivector.basis(SIG_LORENTZ, (4,))  # the timelike covector of the gauge


@lru_cache(maxsize=None)
def _metric(sig):
    # built on first use, so importing the module builds no product tables
    return FormMetric.from_signature(sig)


class _Grades(NamedTuple):
    ones: np.ndarray  # the one-form masks 1, 2, 4, ..., in basis order
    metric_ones: np.ndarray  # <e^i, e^i> at each one-form mask
    # 0/1 weights keeping the coefficients outside grade 1, outside
    # grades 1 and 2, and outside grade 2: the max-norm of a.coeffs * w
    # is that of a minus its dropped grades, bit for bit, since c * 0 is
    # nan exactly where c - c is
    off_one: np.ndarray
    off_one_two: np.ndarray
    off_two: np.ndarray


@lru_cache(maxsize=None)
def _grades(sig) -> _Grades:
    """Cached index and weight vectors of a signature's grades."""
    tables = sig.tables()
    grade = tables.grade
    ones = np.flatnonzero(grade == 1)
    vectors = _Grades(
        ones,
        tables.metric[ones],
        (grade != 1).astype(float),
        ((grade != 1) & (grade != 2)).astype(float),
        (grade != 2).astype(float),
    )
    for arr in vectors:
        arr.setflags(write=False)
    return vectors


def _h(a, b):
    """The induced metric of signature (3,1) on a pair of polyforms."""
    return _metric(SIG_LORENTZ).inner(a, b)


def _is_one_form(a: Multivector, tol: float) -> bool:
    size = abs(a.coeffs)
    return (size * _grades(a.sig).off_one).max() <= tol * max(1.0, size.max())


@dataclass(frozen=True, eq=False)
class ParabolicPair:
    """Null one-form u with a unit spacelike l orthogonal to it."""

    u: Multivector
    l: Multivector

    def __post_init__(self):
        u, l = self.u, self.l
        if u.sig != SIG_LORENTZ or l.sig != SIG_LORENTZ:
            raise ValueError("parabolic pairs live in signature (3,1)")
        tol = DEFAULT_TOL
        if not (_is_one_form(u, tol) and _is_one_form(l, tol)):
            raise ValueError("pair members must be one-forms")
        u_norm = u.norm_inf()
        scale = max(1.0, u_norm, l.norm_inf()) ** 2
        if u_norm <= tol:
            raise ValueError("u must be nonzero")
        if abs(_h(u, u)) > tol * scale:
            raise ValueError("u must be null")
        if abs(_h(l, l) - 1.0) > tol * scale:
            raise ValueError("l must have unit norm")
        if abs(_h(u, l)) > tol * scale:
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
        return cls(
            Multivector.covector(SIG_LORENTZ, np.asarray(payload["u"], dtype=float)),
            Multivector.covector(SIG_LORENTZ, np.asarray(payload["l"], dtype=float)),
        )


@dataclass(frozen=True, eq=False)
class DegenerateFlag:
    """Nested spans W1 < W2 < W3 on which the metric degenerates."""

    W1: tuple
    W2: tuple
    W3: tuple


def pair_to_polyform(pp: ParabolicPair) -> Multivector:
    """The square u + u /\\ l determined by a parabolic pair."""
    return pp.u + wedge(pp.u, pp.l)


def _reject(reason: str):
    raise ValueError(f"not a spinor square: {reason}")


def polyform_to_pair(alpha: Multivector, tol: float = DEFAULT_TOL) -> ParabolicPair:
    """Split a Lorentzian square into its parabolic pair.

    u is the grade-1 part; l is extracted from the grade-2 part by
    contracting with the basis covector seeing the largest metric
    component of u, then shifted into the gauge h*(l, e^4) = 0.
    """
    if alpha.sig != SIG_LORENTZ:
        raise ValueError("expected a multivector in signature (3,1)")
    grades = _grades(SIG_LORENTZ)
    ones = grades.ones
    coeffs = alpha.coeffs
    scale = max(1.0, alpha.norm_inf())
    if abs(coeffs * grades.off_one_two).max() > tol * scale:
        _reject("components outside grades 1 and 2")
    u_comps = coeffs[ones]
    if abs(u_comps).max() <= tol * scale:
        _reject("grade-1 part vanishes")
    u = alpha.grade(1)
    if abs(_h(u, u)) > tol * scale * scale:
        _reject("grade-1 part is not null")
    omega = alpha.grade(2).coeffs
    omega_norm = abs(omega).max()
    if omega_norm <= tol * scale:
        _reject("grade-2 part vanishes, no unit transverse factor exists")

    r = grades.metric_ones * u_comps
    pivot = int(abs(r).argmax())
    # contracting the basis covector e^m with the two-form omega reads one
    # row of the product's sign table: (e^m <> omega)[i] = sign[m, i] omega[m ^ i]
    m = ones[pivot]
    l0 = np.zeros(len(coeffs))
    l0[ones] = SIG_LORENTZ.tables().sign[m, ones] * omega[m ^ ones] * (1.0 / r[pivot])
    if not np.isfinite(omega_norm):
        # as a product the contraction meets every entry of omega, and
        # 0 * inf and 0 * nan are nan in every component; keep that, so
        # the pair's one-form check rejects it
        l0[:] = np.nan
    l0 = Multivector(SIG_LORENTZ, l0)
    if abs(wedge(u, l0).coeffs - omega).max() > tol * scale:
        _reject("grade-2 part is not divisible by the grade-1 part")
    if abs(_h(l0, l0) - 1.0) > tol * max(1.0, scale):
        _reject("transverse factor is not of unit norm")

    return normalize_gauge(ParabolicPair(u, l0), _E4, tol=tol)


def pair_equivalent(a: ParabolicPair, b: ParabolicPair, mode: str, tol: float = DEFAULT_TOL) -> bool:
    """Equivalence of pairs: strong (u up to sign), plain (u up to
    scale), or weak (additionally l up to sign), always modulo shifts
    l -> l + c u."""
    if mode not in ("weak", "plain", "strong"):
        raise ValueError(f"unknown equivalence mode {mode!r}")
    ua = a.u.one_form_components()
    ub = b.u.one_form_components()
    pivot = int(np.argmax(np.abs(ua)))
    factor = ub[pivot] / ua[pivot]
    if abs(factor) <= tol or np.max(np.abs(ub - factor * ua)) > tol * max(1.0, np.max(np.abs(ub))):
        return False
    if mode == "strong" and min(abs(factor - 1.0), abs(factor + 1.0)) > tol:
        return False
    etas = (1.0,) if mode in ("strong", "plain") else (1.0, -1.0)
    la = a.l.one_form_components()
    lb = b.l.one_form_components()
    for eta in etas:
        diff = lb - eta * la
        c = diff[pivot] / ua[pivot]
        if np.max(np.abs(diff - c * ua)) <= tol * max(1.0, np.max(np.abs(lb))):
            return True
    return False


def pair_to_flag(pp: ParabolicPair) -> DegenerateFlag:
    """The degenerate flag span(u) < span(u,l) < u-perp of a pair."""
    r = _grades(SIG_LORENTZ).metric_ones * pp.u.one_form_components()
    pivot = int(abs(r).argmax())
    w3 = []
    for j in range(4):
        if j == pivot:
            continue
        comps = np.zeros(4)
        comps[j] = 1.0
        comps[pivot] = -r[j] / r[pivot]
        w3.append(Multivector.covector(SIG_LORENTZ, comps))
    return DegenerateFlag(W1=(pp.u,), W2=(pp.u, pp.l), W3=tuple(w3))


def normalize_gauge(pp: ParabolicPair, v: Multivector, tol: float = DEFAULT_TOL) -> ParabolicPair:
    """Shift l along u so that it is orthogonal to the timelike unit v."""
    if not _is_one_form(v, tol) or abs(_h(v, v) + 1.0) > tol:
        raise ValueError("gauge direction must be a unit timelike one-form")
    huv = _h(pp.u, v)
    if abs(huv) <= tol:
        raise ValueError("u is orthogonal to the gauge direction; bad input")
    f = -_h(pp.l, v) / huv
    return ParabolicPair(pp.u, Multivector(SIG_LORENTZ, pp.l.coeffs + pp.u.coeffs * float(f)))


def check_22_chiral_square(alpha: Multivector, tol: float = DEFAULT_TOL) -> bool:
    """Whether alpha is a self-dual two-form of zero norm in (2,2).

    These are exactly the squares of negative-chirality spinors under
    the plus pairing.
    """
    if alpha.sig != SIG_NEUTRAL:
        raise ValueError("expected a multivector in signature (2,2)")
    scale = max(1.0, alpha.norm_inf())
    if abs(alpha.coeffs * _grades(SIG_NEUTRAL).off_two).max() > tol * scale:
        return False
    two = alpha.grade(2)
    if (hodge_star(two) - two).norm_inf() > tol * scale:
        return False
    return abs(_metric(SIG_NEUTRAL).inner(two, two)) <= tol * scale * scale


def random_parabolic_pair(rng) -> ParabolicPair:
    """Sample a pair by rotating a spacelike frame, with u = e_time + n."""
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    l_space, n_space = R[:, 0], R[:, 1]
    u = np.append(n_space, 1.0)
    u *= rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-1.0, 1.0))
    c = rng.uniform(-1.0, 1.0)
    l = np.append(l_space, 0.0) + c * u
    return ParabolicPair(
        Multivector.covector(SIG_LORENTZ, u), Multivector.covector(SIG_LORENTZ, l)
    )
