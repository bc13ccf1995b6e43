"""Signed squaring of spinors and reconstruction from polyform squares.

A spinor xi and a sign kappa determine the rank-one endomorphism
E = kappa * xi (x) xi^*, where xi^* = B(-, xi) is the metric dual under
an admissible pairing.  Dequantizing E gives the polyform square alpha.
This module implements the squaring map, the exact characterization of
its image (transpose symmetry, and quantize(alpha) of the rank-one form
kappa * xi (x) xi^*) as one test, square_test, over a stack of
polyforms, the inverse map recovering xi up to sign from the same fit,
and chirality tests. An endomorphism E is tested as the polyform
dequantize(E) (check_admissible), and the grades a square can carry are
those where the pairing's s-transpose weight vanishes (allowed_grades).

Every check reads its input at unit max-norm and compares the residual
against tol, DEFAULT_TOL = 1e-9 unless given; a non-finite input fails.

verify_square_conditions and reconstruct (so check_admissible and
lowdim.polyform_to_pair too) read one memo of square_test on a lone
polyform, keyed by the identity of the PairedRep and the Multivector:
both hold only sealed arrays (_kernels.sealed), so neither can change,
and a polyform tested once is not tested again while the memo, bounded
at _MEMO_SIZE entries, holds it. Stacked callers call square_test
directly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import sealed
from .clifford_rep import PairedRep, Spinor, dequantize
from .ka_core import Multivector, volume_product

DEFAULT_TOL = 1e-9
_MEMO_SIZE = 8  # polyforms whose square test the memo keeps
_TINY = np.finfo(float).tiny  # the least normal float64


def allowed_grades(pr: PairedRep, pairing_tag: str) -> tuple:
    """Grades that can appear in a square: where the s-transpose sign is the symmetry sign sigma."""
    weight = pr.pairing(pairing_tag)[3]
    return tuple(sorted(set(pr.rep.sig.tables().grade[weight == 0.0].tolist())))


class SquareResult(NamedTuple):
    alpha: Multivector
    kappa: int
    pairing_tag: str
    s: int
    sigma: int


def square(pr: PairedRep, pairing_tag: str, kappa: int, xi: Spinor) -> SquareResult:
    """Polyform square of a spinor with the chosen pairing and sign."""
    if kappa not in (1, -1):
        raise ValueError(f"kappa must be +1 or -1, got {kappa!r}")
    if xi.rep is not pr.rep and xi.rep.sig != pr.rep.sig:
        raise ValueError("spinor belongs to a different representation")
    B, sigma, s, _ = pr.pairing(pairing_tag)
    # past about 1e154 the products xi_i xi_j overflow, and below about 1e-154 they leave the
    # normal range: an error either way, not inf or nan coefficients or the square of xi = 0
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = dequantize(pr.rep, kappa * np.outer(xi.components, xi.components @ B))
    size = abs(alpha.coeffs).max()
    if not size < math.inf:
        raise ValueError("the square overflows float64 or the spinor is not finite")
    if size < _TINY and xi.components.any():
        raise ValueError("the square underflows float64: the spinor is too small to square")
    return SquareResult(alpha, kappa, pairing_tag, s, sigma)


# ---------------------------------------------------------------------------
# the square test, over a stack of polyforms
# ---------------------------------------------------------------------------


class _RankOneFit(NamedTuple):  # one entry per endomorphism E of a stack
    scale: np.ndarray  # max |E|; the fit is made on E / scale
    eta: np.ndarray  # the largest-norm column of E / scale
    c: np.ndarray  # E / scale is fitted by c * eta (x) (eta @ B)
    residual: np.ndarray  # max |E / scale - c * eta (x) (eta @ B)|


# a[k] . b[k] for each row k, by the BLAS dot np.vdot makes for a lone row (numpy < 2: matmul's)
_dot = getattr(np, "vecdot", lambda a, b: (a[:, None, :] @ b[:, :, None])[:, 0, 0])


def _rank_one_fit(B, E) -> _RankOneFit:
    """Fit each flattened E of an (n, N * N) stack against the rank-one model kappa * xi (x) xi^*.

    E is such a square exactly when it is a multiple of eta (x) (eta @ B)
    for its largest-norm column eta. No E is zero; callers settle zero first.
    """
    n, N = len(E), len(B)
    scale = abs(E).max(axis=1)
    # fit on unit max-norm so no product of entries over- or underflows
    Ehat = E / scale[:, None]
    matrices = Ehat.reshape(n, N, N)
    eta = matrices[np.arange(n), :, np.sqrt(np.add.reduce(matrices * matrices, 1)).argmax(axis=1)]
    # B is a signed permutation, so each entry of eta @ B is one exact product
    model = (eta[:, :, None] * (eta @ B)[:, None, :]).reshape(n, N * N)
    c = _dot(model, Ehat) / _dot(model, model)
    return _RankOneFit(scale, eta, c, abs(Ehat - c[:, None] * model).max(axis=1))


def square_test(pr: PairedRep, pairing_tag: str, coeffs) -> tuple:
    """(fit, shift, r_sym): both square conditions on each row of an (n, 2^d) coefficient stack.

    fit is the rank-one fit of E = quantize(alpha * 2^-shift): an even power
    of two keeps every bit while E cannot overflow, and sqrt(max|E|) splits
    off 2^(shift/2) exactly. r_sym is the s-transpose residual at unit
    max-norm. A zero row reads 0 throughout (the square of xi = 0), a
    non-finite one nan (quantize would meet 0 * inf).
    """
    norm = size = abs(coeffs).max(axis=1)
    if odd := not all(0.0 < v < math.inf for v in size.tolist()):
        regular = np.isfinite(size) & (size > 0.0)
        # the scalar 1 stands in for the other rows; their entries are overwritten below
        coeffs = np.where(regular[:, None], coeffs, np.eye(1, coeffs.shape[1]))
        norm = np.where(regular, size, 1.0)
    # minus the even exponent at or below each norm's, as C ints (ldexp casts int64 ones slowly)
    lower = -(np.frexp(norm)[1] & -2)
    scaled = np.ldexp(coeffs, lower[:, None])
    B, _, _, weight = pr.pairing(pairing_tag)
    # quantize, one vector-matrix product per row, as for a lone row: no row depends on the others
    fit = _rank_one_fit(B, (scaled[:, None, :] @ pr.rep.blade_table)[:, 0])
    # 1 / norm is inf below norm ~ 5.6e-309 and subnormal above ~ 4.5e307;
    # the scaled max-norm lies in [0.5, 2), where the reciprocal never is
    recip = 1.0 / np.ldexp(norm, lower)
    # ahat * sign - sigma * ahat (ahat = scaled * recip) is 0 or 2 ahat: exactly ahat * (sign -
    # sigma), and as rounding is monotone its max is max|scaled * weight| * recip
    r_sym = abs(scaled * weight).max(axis=1) * recip
    if odd:
        r = np.where(size[~regular] == 0.0, 0.0, math.nan)
        for part in (fit.scale, fit.c, fit.residual, r_sym):
            part[~regular] = r
        fit.eta[~regular] = r[:, None]
    return fit, -lower, r_sym


@lru_cache(maxsize=_MEMO_SIZE)
def _tested(pr: PairedRep, pairing_tag: str, alpha: Multivector) -> tuple:
    """(scale, c, residual, r_sym, shift, eta): square_test on the lone row alpha, memoised.

    PairedRep and Multivector hash and compare by identity, and their
    arrays are sealed, so the key names one pairing and one polyform,
    which the memo holds alive: an equal copy is a new key, tested anew.
    eta is sealed too, as every caller of one entry shares it.
    """
    if alpha.sig != pr.rep.sig:
        raise ValueError(f"signature mismatch: {alpha.sig} vs {pr.rep.sig}")
    fit, shift, r_sym = square_test(pr, pairing_tag, alpha.coeffs[None])
    floats = (float(part[0]) for part in (fit.scale, fit.c, fit.residual, r_sym))
    return (*floats, int(shift[0]), sealed(fit.eta[0]))


# ---------------------------------------------------------------------------
# square conditions and reconstruction
# ---------------------------------------------------------------------------


class SquareConditionsReport(NamedTuple):
    is_square: bool
    residual_symmetry: float
    residual_rank_one: float
    tol: float


def verify_square_conditions(
    pr: PairedRep, pairing_tag: str, alpha: Multivector, *, tol=DEFAULT_TOL, seed=None
) -> SquareConditionsReport:
    """Check the two conditions characterizing polyform squares: square_test on alpha alone.

    (i) the s-transpose fixes alpha up to the symmetry sign sigma, at unit
    max-norm, and (ii) E = quantize(alpha) is the rank-one endomorphism
    kappa * xi (x) xi^*. alpha is a square when both residuals are at most
    tol, exactly when reconstruct accepts it at the same tol. No probes, no seed.
    """
    # seed is accepted and ignored: perfbench/wl_algebra.py still passes it
    scale, c, residual, r_sym, _, _ = _tested(pr, pairing_tag, alpha)
    # a zero fit coefficient is no spinor, whatever tol is; NaN (non-finite alpha) rejects too
    ok = scale == 0.0 or (c != 0.0 and r_sym <= tol and residual <= tol)
    return SquareConditionsReport(ok, r_sym, residual, tol)


def check_admissible(pr: PairedRep, pairing_tag: str, E, tol=DEFAULT_TOL) -> SquareConditionsReport:
    """Whether the endomorphism E is a square kappa * xi (x) xi^*, by verify_square_conditions.

    E is read as the polyform dequantize(E), whose quantization is E itself.
    """
    E = np.asarray(E, dtype=np.float64)
    # a non-finite entry reads NaN, which square_test rejects; dequantize would meet 0 * inf
    alpha = dequantize(pr.rep, np.where(np.isfinite(E), E, math.nan))
    return verify_square_conditions(pr, pairing_tag, alpha, tol=tol)


class ReconstructionError(ValueError):
    """Raised when a polyform is not the square of any spinor."""


class ReconstructionResult(NamedTuple):
    spinor: Spinor
    kappa: int
    residual: float


def reconstruct(pr: PairedRep, pairing_tag: str, alpha: Multivector,
                tol=DEFAULT_TOL) -> ReconstructionResult:
    """Recover the spinor (up to sign) whose square is alpha.

    The largest-norm column of quantize(alpha) is its direction, and the
    rank-one fit of square_test its scale and kappa. alpha is accepted when
    verify_square_conditions accepts it at the same tol; xi and -xi square
    to the same alpha, so the returned representative is arbitrary.
    """
    rep = pr.rep
    scale, c, residual, r_sym, shift, eta = _tested(pr, pairing_tag, alpha)
    if scale == 0.0:
        return ReconstructionResult(Spinor(rep, np.zeros(rep.N)), 0, 0.0)
    if c == 0.0:
        raise ReconstructionError("polyform is not reconstructible: degenerate fit")
    kappa = 1 if c > 0 else -1
    xi = np.sqrt(abs(c)) * np.ldexp(np.sqrt(scale), shift // 2) * eta
    # a NaN residual must reject too, so test for acceptance
    for name, r in (("rank-one fit", residual), ("symmetry", r_sym)):
        if not r <= tol:
            raise ReconstructionError(f"polyform is not reconstructible: {name} residual {r:.3e}")
    return ReconstructionResult(Spinor(rep, xi), kappa, residual)


# ---------------------------------------------------------------------------
# chirality
# ---------------------------------------------------------------------------


def check_chirality(pr: PairedRep, alpha: Multivector, mu: int, tol=DEFAULT_TOL) -> bool:
    """Whether nu <> alpha = mu alpha at unit max-norm, i.e. alpha squares a chiral spinor."""
    if mu not in (1, -1):
        raise ValueError(f"mu must be +1 or -1, got {mu!r}")
    sig = pr.rep.sig
    # nu^2 is the scalar +1 or -1
    nu_squared = volume_product(Multivector.volume(sig)).scalar_part
    if nu_squared != 1.0:
        raise ValueError(
            f"chirality needs a signature with nu^2 = 1; ({sig.p},{sig.q}) has "
            f"nu^2 = {nu_squared:g}"
        )
    norm = alpha.norm_inf()
    if not 0.0 < norm < math.inf:
        return norm == 0.0
    ahat = Multivector(sig, alpha.coeffs / norm)
    return bool((volume_product(ahat) - mu * ahat).norm_inf() <= tol)
