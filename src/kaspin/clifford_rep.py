"""Irreducible real Clifford representations and admissible pairings.

For signatures with d = p + q even and p - q in {0, 2} the algebra
Cl(p, q) has a unique irreducible real left module of dimension
N = 2^(d/2).  We realise it by explicit gamma matrices with entries in
{-1, 0, 1}, built recursively from the base cases (2, 0) and (1, 1) by
tensoring with the (1, 1) block matrices.

``quantize`` sends a multivector to its representing endomorphism via
the blade matrices Gamma_I = gamma_{i_1} @ ... @ gamma_{i_k} (ascending
index order); ``dequantize`` inverts it through the trace pairing
c_I = tr(Gamma_I^{-1} E) / N.  Both read one cached float table whose
rows are the flattened Gamma_I: quantize is coeffs @ table, and the
trace pairing is applied as the one product table @ E^T flattened,
followed by the per-blade inverse sign and 1/N.

``build_pairings`` reads the two admissible bilinear pairings Bplus
(adjoint type s = +1) and Bminus (s = -1) off the blade table: the
blade matrices are signed permutations, so the invariant inner product
(the group average of Gamma_I^T Gamma_I) is the identity, and each
pairing is the volume blade of the definite or negative-definite
factor.  Both are normalized so
that Bplus = (-1)^floor(q/2) * Bminus @ gamma(nu) holds exactly, with
the largest-magnitude entry of Bplus equal to +1.  All invariants
(symmetry types, adjoint identities, nondegeneracy) are verified at
construction time; a failure is a construction bug, not user error.
The PairedRep it returns holds one Pairing record (B, sigma, s, weight)
per tag, read by ``pr.pairing("plus")`` or ``pr.pairing("minus")``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import sealed
from .ka_core import Multivector, Signature, _Frozen, _set

# (sigma_plus, sigma_minus) keyed by k = d/2 mod 4
PAIRING_SYMMETRY = {0: (1, 1), 1: (1, -1), 2: (-1, -1), 3: (-1, 1)}

_T = sealed(np.array([[0, 1], [1, 0]], dtype=np.int64))
_U = sealed(np.array([[0, 1], [-1, 0]], dtype=np.int64))
_OMEGA = sealed(_T @ _U)  # squares to Id, anticommutes with _T and _U


def _extend(gammas, p):
    """One Cl(p, q) -> Cl(p+1, q+1) step: tensor with the (1, 1) block."""
    eye = np.eye(gammas[0].shape[0], dtype=np.int64)
    plus = [np.kron(g, _OMEGA) for g in gammas[:p]] + [np.kron(eye, _T)]
    minus = [np.kron(g, _OMEGA) for g in gammas[p:]] + [np.kron(eye, _U)]
    return plus + minus


class GammaRep(_Frozen):
    """Irreducible real representation: gamma matrices plus blade cache.

    Equal and hashed by identity: build_pairings caches on the instance.
    Holds sealed copies of the gammas.
    """

    __slots__ = ("sig", "gammas", "blade_table")
    _shown = ("sig",)

    def __init__(self, sig: Signature, gammas):
        n = sig.n_blades
        N = gammas[0].shape[0]
        blades = np.empty((n, N, N))
        blades[0] = np.eye(N)
        for mask in range(1, n):
            low = mask & -mask
            blades[mask] = gammas[low.bit_length() - 1] @ blades[mask ^ low]
        _set(self, "sig", sig)
        _set(self, "gammas", tuple(map(sealed, gammas)))
        # float64 (n_blades, N^2) rows of the blade matrices Gamma_I, shared
        # by quantize, dequantize and build_pairings; the entries are exact
        _set(self, "blade_table", sealed(blades.reshape(n, N * N)))

    @property
    def N(self):
        return self.gammas[0].shape[0]

    def to_json(self) -> str:
        payload = {
            "p": self.sig.p,
            "q": self.sig.q,
            "N": self.N,
            "gammas": [g.tolist() for g in self.gammas],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=None)
def build_rep(sig: Signature) -> GammaRep:
    """Build the irreducible representation for a supported signature."""
    if not sig.supports_rep():
        kind = (sig.p - sig.q) % 8
        raise ValueError(
            f"signature ({sig.p},{sig.q}) is of real type, but only p - q in {{0, 2}} is built"
            if kind in (0, 2) else
            f"signature ({sig.p},{sig.q}) is not of real type: (p - q) mod 8 = {kind}, not 0 or 2"
        )
    if sig.p - sig.q == 2:
        gammas = [np.array([[1, 0], [0, -1]], dtype=np.int64), _T]
        p_cur, steps = 2, sig.q
    else:
        gammas = [_T, _U]
        p_cur, steps = 1, sig.p - 1
    for _ in range(steps):
        gammas = _extend(gammas, p_cur)
        p_cur += 1
    return GammaRep(sig, gammas)


def quantize(rep: GammaRep, a: Multivector) -> np.ndarray:
    """Matrix of the left action of a multivector on the spinor module."""
    if a.sig != rep.sig:
        raise ValueError(f"signature mismatch: {a.sig} vs {rep.sig}")
    return (a.coeffs @ rep.blade_table).reshape(rep.N, rep.N)


def dequantize(rep: GammaRep, E: np.ndarray) -> Multivector:
    """Unique multivector whose quantization is the given endomorphism."""
    E = np.asarray(E, dtype=np.float64)
    if E.shape != (rep.N, rep.N):
        raise ValueError(f"expected a {rep.N}x{rep.N} matrix, got {E.shape}")
    # row I of the table is Gamma_I flattened, so its dot with E^T
    # flattened is tr(Gamma_I E): every trace in one product
    traces = rep.blade_table @ E.T.ravel()
    # Gamma_I^{-1} = tau_I * metric_I * Gamma_I for each blade
    t = rep.sig.tables()
    coeffs = t.tau * t.metric * traces / rep.N
    return Multivector(rep.sig, coeffs)


class Pairing(NamedTuple):
    """One admissible pairing: B, its symmetry sign sigma, its adjoint type s, and
    square_test's per-blade weight of the s-transpose residual, s-transpose signs - sigma."""

    B: np.ndarray
    sigma: int
    s: int
    weight: np.ndarray


class PairedRep(_Frozen):
    """Representation together with its two admissible pairings, read by pairing(tag).

    Equal and hashed by identity, like its rep.
    """

    __slots__ = ("rep", "_pairings")
    _shown = ("rep",)

    def __init__(self, rep: GammaRep, Bplus: np.ndarray, Bminus: np.ndarray,
                 sigma_plus: int, sigma_minus: int):
        _set(self, "rep", rep)
        # sealed copies: build_pairings shares one PairedRep
        _set(self, "_pairings", {
            tag: Pairing(sealed(np.asarray(B)), sigma, s,
                         sealed(s_transpose_signs(rep.sig, s) - sigma))
            for tag, B, sigma, s in (("plus", Bplus, sigma_plus, 1),
                                     ("minus", Bminus, sigma_minus, -1))})

    def pairing(self, tag: str) -> Pairing:
        """The pairing named by tag, 'plus' (s = +1) or 'minus' (s = -1)."""
        try:
            return self._pairings[tag]
        except (KeyError, TypeError):
            raise ValueError(f"unknown pairing tag {tag!r}; use 'plus' or 'minus'") from None

    def to_json(self) -> str:
        payload = json.loads(self.rep.to_json())
        for tag, pairing in self._pairings.items():
            payload[f"B{tag}"] = pairing.B.tolist()
            payload[f"sigma_{tag}"] = pairing.sigma
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, what: str):
    if not cond:
        raise RuntimeError(f"pairing construction invariant violated: {what}")


@lru_cache(maxsize=None)
def build_pairings(rep: GammaRep) -> PairedRep:
    """Construct and verify the two admissible pairings of a representation.

    The blade matrices are orthogonal, so the invariant inner product
    is the identity and the pairings are the volume blades of the plus
    and minus factors, assigned according to the parity of p.
    """
    sig = rep.sig
    n = sig.n_blades
    blades = rep.blade_table.reshape(n, rep.N, rep.N)

    nu_plus_mask = (1 << sig.p) - 1
    nu_plus, nu_minus = blades[nu_plus_mask], blades[(n - 1) ^ nu_plus_mask]
    raw_plus, raw_minus = (nu_plus, nu_minus) if sig.p % 2 == 1 else (nu_minus, nu_plus)

    # scale so the largest-magnitude entry of Bplus is exactly +1
    Bplus = raw_plus / raw_plus.flat[np.abs(raw_plus).argmax()]

    # fix Bminus through the exact volume-blade relation
    Gnu = blades[n - 1]
    t = sig.tables()
    Bminus = (-1.0) ** (sig.q // 2) * Bplus @ (t.tau[-1] * t.metric[-1] * Gnu)

    ratio = np.vdot(raw_minus, Bminus) / np.vdot(raw_minus, raw_minus)
    _require(
        abs(ratio) > 1e-12 and np.allclose(Bminus, ratio * raw_minus, atol=1e-12),
        "Bminus not proportional to the other volume blade",
    )

    sigma_plus, sigma_minus = PAIRING_SYMMETRY[(sig.d // 2) % 4]
    _require(np.array_equal(Bplus.T, sigma_plus * Bplus), "Bplus symmetry type")
    _require(np.array_equal(Bminus.T, sigma_minus * Bminus), "Bminus symmetry type")
    _require(abs(np.linalg.det(Bplus)) > 1e-9, "Bplus nondegenerate")
    _require(abs(np.linalg.det(Bminus)) > 1e-9, "Bminus nondegenerate")
    for i, g in enumerate(rep.gammas):
        gf = g.astype(np.float64)
        _require(
            np.max(np.abs(Bplus @ gf - gf.T @ Bplus)) <= 1e-13,
            f"Bplus adjoint identity on generator {i + 1}",
        )
        _require(
            np.max(np.abs(Bminus @ gf + gf.T @ Bminus)) <= 1e-13,
            f"Bminus adjoint identity on generator {i + 1}",
        )
    if sig.q == 0:
        _require(np.min(np.linalg.eigvalsh(Bplus)) > 0, "Bplus positive definite")

    return PairedRep(rep, Bplus, Bminus, sigma_plus, sigma_minus)


def s_transpose_signs(sig: Signature, s: int) -> np.ndarray:
    """Per-blade signs of the s-transpose: tau for s = +1, pi o tau for s = -1."""
    if s not in (1, -1):
        raise ValueError(f"adjoint type must be +1 or -1, got {s!r}")
    t = sig.tables()
    return t.tau if s == 1 else t.pi_tau


def s_transpose(s: int, a: Multivector) -> Multivector:
    """Algebra-side transpose matching matrix transposition under a pairing.

    For s = +1 this is the reversal tau, for s = -1 the composition
    pi o tau, so that Bs @ quantize(a) = quantize(s_transpose(a)).T @ Bs.
    """
    return Multivector(a.sig, a.coeffs * s_transpose_signs(a.sig, s))


class Spinor(_Frozen):
    """Element of the module a representation acts on; equal by identity."""

    __slots__ = ("rep", "components")
    _shown = ("rep", "components")

    def __init__(self, rep: GammaRep, components):
        comps = np.asarray(components, dtype=np.float64)
        if comps.shape != (rep.N,):
            raise ValueError(f"spinor must have {rep.N} components, got shape {comps.shape}")
        _set(self, "rep", rep)
        _set(self, "components", sealed(comps))
