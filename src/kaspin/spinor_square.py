"""Signed squaring of spinors and reconstruction from polyform squares.

A spinor xi and a sign kappa determine the rank-one endomorphism
E = kappa * xi (x) xi^*, where xi^* = B(-, xi) is the metric dual under
an admissible pairing.  Dequantizing E gives the polyform square alpha.
This module implements the squaring map, the algebraic characterization
of its image (transpose symmetry, idempotency, and the sandwich
identity alpha <> beta <> alpha = S(alpha <> beta) alpha), the inverse
map recovering xi up to sign, chirality tests, and the transfer of
linear spinor constraints to polyform equations.

Residuals are reported on inputs normalized to unit max-norm, with an
absolute tolerance of 1e-9 by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford_rep import PairedRep, Spinor, dequantize, quantize, s_transpose
from .ka_core import Multivector, geometric_product, ka_trace, multiplier
from .rng import make_rng, random_multivector

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
# admissibility of endomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    residual_idempotent: float
    residual_transpose: float
    residual_sandwich: float
    rank_witness: int
    is_admissible: bool
    tol: float


def admissibility_report(B, sigma, E, probes, tol=DEFAULT_TOL) -> AdmissibilityReport:
    """Test E against the tame-cone characterization for a pairing matrix B.

    The conditions are E^t = sigma E with E^t = B^{-1} E^T B, the
    idempotency E @ E = tr(E) E, and the sandwich E @ A @ E =
    tr(E @ A) E for the supplied probes, at least one of which must
    see tr(E @ A) != 0 unless E vanishes.
    """
    if not probes:
        raise ValueError("probe list must be non-empty")
    E = np.asarray(E, dtype=np.float64)
    scale = np.max(np.abs(E))
    if scale == 0.0:
        return AdmissibilityReport(0.0, 0.0, 0.0, 0, True, tol)
    Ehat = E / scale
    Et = np.linalg.solve(B, Ehat.T @ B)
    r_transpose = float(np.max(np.abs(Et - sigma * Ehat)))
    r_idem = float(np.max(np.abs(Ehat @ Ehat - np.trace(Ehat) * Ehat)))
    EA = Ehat @ np.asarray(probes, dtype=np.float64)
    t = np.trace(EA, axis1=1, axis2=2)
    r_sandwich = float(np.max(np.abs(EA @ Ehat - t[:, None, None] * Ehat)))
    witness = bool(np.any(np.abs(t) > tol))
    rank = int(np.linalg.matrix_rank(Ehat, tol=1e-9))
    ok = witness and max(r_transpose, r_idem, r_sandwich) <= tol
    return AdmissibilityReport(r_idem, r_transpose, r_sandwich, rank, ok, tol)


def default_probes(pr: PairedRep, tag: str, seed=0):
    """Identity, ten random quantized polyforms, and a taming operator."""
    rng = make_rng(seed, stream=97)
    probes = [np.eye(pr.rep.N)]
    for _ in range(10):
        probes.append(quantize(pr.rep, random_multivector(pr.rep.sig, rng)))
    probes.append(np.linalg.inv(pr.B(tag)).T)
    return probes


def check_admissible(pr: PairedRep, s: int, E, probes=None, seed=0, tol=DEFAULT_TOL):
    """Admissibility of an endomorphism under the pairing of adjoint type s."""
    tag = {1: "plus", -1: "minus"}.get(s)
    if tag is None:
        raise ValueError(f"adjoint type must be +1 or -1, got {s!r}")
    if probes is None:
        probes = default_probes(pr, tag, seed=seed)
    return admissibility_report(pr.B(tag), pr.sigma(tag), E, probes, tol=tol)


# ---------------------------------------------------------------------------
# square conditions and reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SquareConditionsReport:
    is_square: bool
    residual_symmetry: float
    residual_idempotent: float
    residual_sandwich: float
    witness_found: bool
    tol: float


# probes are tested this many rows at a time, so memory does not grow with
# n_probes; a block is at most 256 x 256 floats, the size of a Multiplier's
# matrix at d = 8
PROBE_BLOCK = 256


def _probe_blocks(sig, top, n_probes, seed):
    """Coefficient rows of every probe, at most PROBE_BLOCK rows at a time.

    The order is fixed: 1, the volume form, the d basis one-forms, the
    n_probes seeded random polyforms, and last the monomial e_top.
    """
    n = sig.n_blades
    units = [0, n - 1, *(1 << i for i in range(sig.d))]
    first_random = len(units)
    total = first_random + n_probes + 1
    unit_rows = np.array([*range(first_random), total - 1])
    unit_blades = np.array([*units, top])
    rng = make_rng(seed, stream=53)
    for start in range(0, total, PROBE_BLOCK):
        stop = min(start + PROBE_BLOCK, total)
        block = np.zeros((stop - start, n))
        lo, hi = max(start, first_random), min(stop, first_random + n_probes)
        if lo < hi:
            block[lo - start : hi - start] = rng.standard_normal((hi - lo, n))
        here = (unit_rows >= start) & (unit_rows < stop)
        block[unit_rows[here] - start, unit_blades[here]] = 1.0
        yield block


def verify_square_conditions(
    pr: PairedRep, pairing_tag: str, alpha: Multivector, n_probes=10, seed=0, tol=DEFAULT_TOL
) -> SquareConditionsReport:
    """Check the three conditions characterizing polyform squares.

    (i) the s-transpose fixes alpha up to the symmetry sign sigma,
    (ii) alpha <> alpha = S(alpha) alpha, (iii) the sandwich identity
    for random probes plus basis one-forms, the volume form, and one
    monomial guaranteed to have S(alpha <> beta) != 0.

    Every probe shares the one Multiplier of alpha, so a block of probes
    beta costs two matrix products: one for the stack of alpha <> beta,
    one for (alpha <> beta) <> alpha.
    """
    if n_probes < 0:
        raise ValueError(f"n_probes must be non-negative, got {n_probes!r}")
    sig = pr.rep.sig
    s = pr.s(pairing_tag)
    sigma = pr.sigma(pairing_tag)
    scale = alpha.norm_inf()
    if scale == 0.0:
        return SquareConditionsReport(True, 0.0, 0.0, 0.0, True, tol)
    ahat = alpha * (1.0 / scale)
    by_alpha = multiplier(ahat)

    r_sym = (s_transpose(pr, s, ahat) - sigma * ahat).norm_inf()
    r_idem = float(np.max(np.abs(by_alpha.right(ahat.coeffs) - ka_trace(ahat) * ahat.coeffs)))

    # the monomial dual to the largest coefficient always has a nonzero
    # trace against alpha
    top = int(np.argmax(np.abs(ahat.coeffs)))
    r_sandwich = 0.0
    witness = False
    for betas in _probe_blocks(sig, top, n_probes, seed):
        ab = by_alpha.left(betas)
        traces = 2.0 ** (sig.d // 2) * ab[:, 0]
        residual = by_alpha.right(ab) - np.outer(traces, ahat.coeffs)
        r_sandwich = max(r_sandwich, float(np.max(np.abs(residual))))
        witness = witness or bool(np.any(np.abs(traces) > tol))

    ok = witness and max(r_sym, r_idem, r_sandwich) <= tol
    return SquareConditionsReport(ok, r_sym, r_idem, r_sandwich, witness, tol)


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
    model kappa * xi (x) xi^*.  The sign pair {xi, -xi} maps to the
    same alpha, so the returned representative is arbitrary.
    """
    rep = pr.rep
    B = pr.B(pairing_tag)
    E = quantize(rep, alpha)
    scale = np.max(np.abs(E))
    if scale == 0.0:
        return ReconstructionResult(Spinor(rep, np.zeros(rep.N)), 0, 0.0)
    # fit on unit max-norm so no product of entries over- or underflows
    Ehat = E / scale
    col = int(np.argmax(np.linalg.norm(Ehat, axis=0)))
    eta = Ehat[:, col]
    model = np.outer(eta, eta @ B)
    c = float(np.vdot(model, Ehat) / np.vdot(model, model))
    if c == 0.0:
        raise ReconstructionError("polyform is not reconstructible: degenerate fit")
    kappa = 1 if c > 0 else -1
    xi = np.sqrt(abs(c)) * np.sqrt(scale) * eta
    residual = float(np.max(np.abs(Ehat - c * model)))
    # a NaN residual must reject too, so test for acceptance
    if not residual <= tol:
        raise ReconstructionError(
            f"polyform is not reconstructible: rank-one fit residual {residual:.3e}"
        )
    return ReconstructionResult(Spinor(rep, xi), kappa, residual)


# ---------------------------------------------------------------------------
# chirality and constraint transfer
# ---------------------------------------------------------------------------


def check_chirality(pr: PairedRep, alpha: Multivector, mu: int, tol=DEFAULT_TOL) -> bool:
    """Whether nu <> alpha = mu alpha, i.e. alpha squares a chiral spinor."""
    if mu not in (1, -1):
        raise ValueError(f"mu must be +1 or -1, got {mu!r}")
    sig = pr.rep.sig
    if sig.p != sig.q:
        raise ValueError(
            f"chirality needs a signature with nu^2 = 1; ({sig.p},{sig.q}) is not neutral"
        )
    scale = max(1.0, alpha.norm_inf())
    dev = geometric_product(Multivector.volume(sig), alpha) - mu * alpha
    return bool(dev.norm_inf() <= tol * scale)


def constraint_transfer(pr: PairedRep, Q, alpha: Multivector) -> float:
    """Residual of the polyform image of a linear spinor constraint.

    For alpha the square of xi, dequantize(Q) <> alpha vanishes exactly
    when Q xi = 0, so the returned max-norm measures violation of the
    constraint by the underlying spinor.
    """
    qhat = dequantize(pr.rep, np.asarray(Q, dtype=np.float64))
    return geometric_product(qhat, alpha).norm_inf()
