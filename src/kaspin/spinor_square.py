"""Signed squaring of spinors and reconstruction from polyform squares.

A spinor xi and a sign kappa determine the rank-one endomorphism
E = kappa * xi (x) xi^*, where xi^* = B(-, xi) is the metric dual under
an admissible pairing.  Dequantizing E gives the polyform square alpha.
This module implements the squaring map, the exact characterization of
its image (transpose symmetry, and quantize(alpha) of the rank-one form
kappa * xi (x) xi^*, one fit that the inverse map shares), the inverse
map recovering xi up to sign, chirality tests, and the transfer of
linear spinor constraints to polyform equations.

Residuals are reported on inputs normalized to unit max-norm, with an
absolute tolerance of 1e-9 by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clifford_rep import PairedRep, Spinor, dequantize, quantize
from .ka_core import Multivector, _involution_signs, geometric_product

DEFAULT_TOL = 1e-9


def allowed_grades(d: int, sigma: int, s: int) -> tuple:
    """Grades that can appear in a square for a pairing of type (sigma, s)."""
    kept = []
    for k in range(d + 1):
        sign = (-1) ** (k * (1 - s) // 2) * (-1) ** (k * (k - 1) // 2)
        if sign == sigma:
            kept.append(k)
    return tuple(kept)


@dataclass(frozen=True, eq=False)
class SquareResult:
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
    B = pr.B(pairing_tag)
    E = kappa * np.outer(xi.components, xi.components @ B)
    return SquareResult(
        alpha=dequantize(pr.rep, E),
        kappa=kappa,
        pairing_tag=pairing_tag,
        s=pr.s(pairing_tag),
        sigma=pr.sigma(pairing_tag),
    )


# ---------------------------------------------------------------------------
# the rank-one test
# ---------------------------------------------------------------------------


class _RankOneFit(NamedTuple):
    scale: float  # max |E|; the fit is made on E / scale
    eta: np.ndarray  # the largest-norm column of E / scale
    c: float  # E / scale is fitted by c * eta (x) (eta @ B)
    residual: float  # max |E / scale - c * eta (x) (eta @ B)|


def _rank_one_fit(B, E) -> _RankOneFit:
    """Fit E against the rank-one model kappa * xi (x) xi^* of a pairing B.

    E is such a square exactly when it is a multiple of eta (x) (eta @ B)
    for its largest-norm column eta, so the residual of that one fit
    decides membership. A zero E fits with residual 0.
    """
    scale = float(abs(E).max())
    if scale == 0.0:
        return _RankOneFit(0.0, np.zeros(len(E)), 0.0, 0.0)
    # fit on unit max-norm so no product of entries over- or underflows
    Ehat = E / scale
    eta = Ehat[:, int(np.sqrt(np.add.reduce(Ehat * Ehat, 0)).argmax())]
    model = eta[:, None] * (eta @ B)
    c = float(np.vdot(model, Ehat) / np.vdot(model, model))
    return _RankOneFit(scale, eta, c, float(abs(Ehat - c * model).max()))


def _square_test(pr: PairedRep, pairing_tag: str, alpha: Multivector) -> tuple:
    """(fit, shift, r_sym): the two conditions of the square variety on alpha.

    fit is the rank-one fit of E = quantize(alpha * 2^-shift). Scaling by
    an even power of two is exact, so E / max|E| keeps every bit while E
    cannot overflow, and sqrt(max|E|) splits off 2^(shift/2) exactly.
    r_sym is the s-transpose residual of alpha at unit max-norm; the
    s-transpose is tau for s = +1 and pi o tau for s = -1, a sign per
    blade, so it is read off the cached sign vector.
    """
    norm = alpha.norm_inf()
    shift = 2 * (math.frexp(norm)[1] // 2)
    E = quantize(pr.rep, Multivector(alpha.sig, np.ldexp(alpha.coeffs, -shift)))
    fit = _rank_one_fit(pr.B(pairing_tag), E)
    if norm == 0.0:
        return fit, shift, 0.0
    ahat = alpha.coeffs * (1.0 / norm)
    signs = _involution_signs(alpha.sig)[1 if pr.s(pairing_tag) == 1 else 2]
    r_sym = float(abs(ahat * signs - pr.sigma(pairing_tag) * ahat).max())
    return fit, shift, r_sym


# ---------------------------------------------------------------------------
# admissibility of endomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    residual_transpose: float
    residual_rank_one: float
    rank_witness: int
    is_admissible: bool
    tol: float


def admissibility_report(B, sigma, E, tol=DEFAULT_TOL) -> AdmissibilityReport:
    """Test E against the characterization of squares for a pairing matrix B.

    The conditions are E^t = sigma E with E^t = B^{-1} E^T B, and that
    E is the rank-one endomorphism kappa * xi (x) xi^*, both on E scaled
    to unit max-norm. The zero endomorphism is admissible.
    """
    E = np.asarray(E, dtype=np.float64)
    fit = _rank_one_fit(B, E)
    if fit.scale == 0.0:
        return AdmissibilityReport(0.0, 0.0, 0, True, tol)
    Ehat = E / fit.scale
    Et = np.linalg.solve(B, Ehat.T @ B)
    r_transpose = float(np.max(np.abs(Et - sigma * Ehat)))
    rank = int(np.linalg.matrix_rank(Ehat, tol=1e-9))
    ok = fit.c != 0.0 and r_transpose <= tol and fit.residual <= tol
    return AdmissibilityReport(r_transpose, fit.residual, rank, ok, tol)


def check_admissible(pr: PairedRep, s: int, E, tol=DEFAULT_TOL):
    """Admissibility of an endomorphism under the pairing of adjoint type s."""
    tag = {1: "plus", -1: "minus"}.get(s)
    if tag is None:
        raise ValueError(f"adjoint type must be +1 or -1, got {s!r}")
    return admissibility_report(pr.B(tag), pr.sigma(tag), E, tol=tol)


# ---------------------------------------------------------------------------
# square conditions and reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SquareConditionsReport:
    is_square: bool
    residual_symmetry: float
    residual_rank_one: float
    tol: float


def verify_square_conditions(
    pr: PairedRep, pairing_tag: str, alpha: Multivector, *, tol=DEFAULT_TOL, seed=None
) -> SquareConditionsReport:
    """Check the two conditions characterizing polyform squares.

    (i) the s-transpose fixes alpha up to the symmetry sign sigma, on
    alpha scaled to unit max-norm, and (ii) E = quantize(alpha) is the
    rank-one endomorphism kappa * xi (x) xi^*, by the fit reconstruct
    makes. alpha is a square when both residuals are at most tol, which
    is when reconstruct accepts it at the same tol. The test is exact:
    it needs no probes and no seed.
    """
    # seed is accepted and ignored: perfbench/wl_algebra.py still passes it
    fit, _, r_sym = _square_test(pr, pairing_tag, alpha)
    # a zero fit coefficient is no spinor, whatever tol is; NaN rejects too
    ok = fit.scale == 0.0 or (fit.c != 0.0 and r_sym <= tol and fit.residual <= tol)
    return SquareConditionsReport(ok, r_sym, fit.residual, tol)


class ReconstructionError(ValueError):
    """Raised when a polyform is not the square of any spinor."""


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    spinor: Spinor
    kappa: int
    residual: float


def reconstruct(pr: PairedRep, pairing_tag: str, alpha: Multivector, tol=1e-8) -> ReconstructionResult:
    """Recover the spinor (up to sign) whose square is alpha.

    Quantizes alpha, picks the basis column with the largest image as a
    direction, and fits the single remaining scale against the rank-one
    model kappa * xi (x) xi^*.  alpha is accepted when it passes
    verify_square_conditions at the same tol.  The sign pair {xi, -xi}
    maps to the same alpha, so the returned representative is arbitrary.
    """
    rep = pr.rep
    fit, shift, r_sym = _square_test(pr, pairing_tag, alpha)
    if fit.scale == 0.0:
        return ReconstructionResult(Spinor(rep, np.zeros(rep.N)), 0, 0.0)
    if fit.c == 0.0:
        raise ReconstructionError("polyform is not reconstructible: degenerate fit")
    kappa = 1 if fit.c > 0 else -1
    xi = np.sqrt(abs(fit.c)) * np.ldexp(np.sqrt(fit.scale), shift // 2) * fit.eta
    # a NaN residual must reject too, so test for acceptance
    if not fit.residual <= tol:
        raise ReconstructionError(
            f"polyform is not reconstructible: rank-one fit residual {fit.residual:.3e}"
        )
    if not r_sym <= tol:
        raise ReconstructionError(
            f"polyform is not reconstructible: symmetry residual {r_sym:.3e}"
        )
    return ReconstructionResult(Spinor(rep, xi), kappa, fit.residual)


# ---------------------------------------------------------------------------
# chirality and constraint transfer
# ---------------------------------------------------------------------------


def check_chirality(pr: PairedRep, alpha: Multivector, mu: int, tol=DEFAULT_TOL) -> bool:
    """Whether nu <> alpha = mu alpha, i.e. alpha squares a chiral spinor."""
    if mu not in (1, -1):
        raise ValueError(f"mu must be +1 or -1, got {mu!r}")
    sig = pr.rep.sig
    nu = Multivector.volume(sig)
    # nu^2 is the scalar +1 or -1
    nu_squared = geometric_product(nu, nu).scalar_part
    if nu_squared != 1.0:
        raise ValueError(
            f"chirality needs a signature with nu^2 = 1; ({sig.p},{sig.q}) has "
            f"nu^2 = {nu_squared:g}"
        )
    scale = max(1.0, alpha.norm_inf())
    dev = geometric_product(nu, alpha) - mu * alpha
    return bool(dev.norm_inf() <= tol * scale)


def constraint_transfer(pr: PairedRep, Q, alpha: Multivector) -> float:
    """Residual of the polyform image of a linear spinor constraint.

    For alpha the square of xi, dequantize(Q) <> alpha vanishes exactly
    when Q xi = 0, so the returned max-norm measures violation of the
    constraint by the underlying spinor.
    """
    qhat = dequantize(pr.rep, np.asarray(Q, dtype=np.float64))
    return geometric_product(qhat, alpha).norm_inf()
