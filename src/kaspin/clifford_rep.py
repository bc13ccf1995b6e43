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

``build_pairings`` constructs the two admissible bilinear pairings
Bplus (adjoint type s = +1) and Bminus (s = -1) by group averaging over
the 2^(d+1) signed blade matrices and multiplying by the volume blade
of the definite or negative-definite factor.  Both are normalized so
that Bplus = (-1)^floor(q/2) * Bminus @ gamma(nu) holds exactly, with
the largest-magnitude entry of Bplus equal to +1.  All invariants
(symmetry types, adjoint identities, nondegeneracy) are verified at
construction time; a failure is a construction bug, not user error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ka_core import Multivector, Signature, pi_tau, tau

# (sigma_plus, sigma_minus) keyed by k = d/2 mod 4
PAIRING_SYMMETRY = {0: (1, 1), 1: (1, -1), 2: (-1, -1), 3: (-1, 1)}

_T = np.array([[0, 1], [1, 0]], dtype=np.int64)
_U = np.array([[0, 1], [-1, 0]], dtype=np.int64)
_OMEGA = _T @ _U  # squares to Id, anticommutes with _T and _U


def _extend(gammas, p):
    """One Cl(p, q) -> Cl(p+1, q+1) step: tensor with the (1, 1) block."""
    eye = np.eye(gammas[0].shape[0], dtype=np.int64)
    plus = [np.kron(g, _OMEGA) for g in gammas[:p]] + [np.kron(eye, _T)]
    minus = [np.kron(g, _OMEGA) for g in gammas[p:]] + [np.kron(eye, _U)]
    return plus + minus


@dataclass(frozen=True, eq=False)
class GammaRep:
    """Irreducible real representation: gamma matrices plus blade cache."""

    sig: Signature
    gammas: tuple = field(repr=False)
    # float64 (n_blades, N^2) rows of the blade matrices Gamma_I, shared
    # by quantize, dequantize and build_pairings; the entries are exact
    blade_table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.sig.n_blades
        N = self.gammas[0].shape[0]
        blades = np.empty((n, N, N))
        blades[0] = np.eye(N)
        for mask in range(1, n):
            low = mask & -mask
            blades[mask] = self.gammas[low.bit_length() - 1] @ blades[mask ^ low]
        table = blades.reshape(n, N * N)
        table.setflags(write=False)
        object.__setattr__(self, "blade_table", table)

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
        raise ValueError(
            f"no real irreducible matrix model for signature ({sig.p},{sig.q}); "
            "need d even and p - q in {0, 2}"
        )
    if sig.p - sig.q == 2:
        gammas = [np.array([[1, 0], [0, -1]], dtype=np.int64), _T.copy()]
        p_cur, steps = 2, sig.q
    else:
        gammas = [_T.copy(), _U.copy()]
        p_cur, steps = 1, sig.p - 1
    for _ in range(steps):
        gammas = _extend(gammas, p_cur)
        p_cur += 1
    for g in gammas:
        g.setflags(write=False)
    return GammaRep(sig, tuple(gammas))


def quantize(rep: GammaRep, a: Multivector) -> np.ndarray:
    """Matrix of the left action of a multivector on the spinor module."""
    if a.sig != rep.sig:
        raise ValueError(f"signature mismatch: {a.sig} vs {rep.sig}")
    return (a.coeffs @ rep.blade_table).reshape(rep.N, rep.N)


@lru_cache(maxsize=None)
def _inverse_trace_signs(sig: Signature) -> np.ndarray:
    # Gamma_I^{-1} = (-1)^{k(k-1)/2} * metric_I * Gamma_I for each blade
    tables = sig.tables()
    k = tables.grade
    signs = (-1.0) ** (k * (k - 1) // 2) * tables.metric
    signs.setflags(write=False)
    return signs


def dequantize(rep: GammaRep, E: np.ndarray) -> Multivector:
    """Unique multivector whose quantization is the given endomorphism."""
    E = np.asarray(E, dtype=np.float64)
    if E.shape != (rep.N, rep.N):
        raise ValueError(f"expected a {rep.N}x{rep.N} matrix, got {E.shape}")
    # row I of the table is Gamma_I flattened, so its dot with E^T
    # flattened is tr(Gamma_I E): every trace in one product
    traces = rep.blade_table @ E.T.ravel()
    coeffs = _inverse_trace_signs(rep.sig) * traces / rep.N
    return Multivector(rep.sig, coeffs)


@dataclass(frozen=True, eq=False)
class PairedRep:
    """Representation together with its two admissible pairings."""

    rep: GammaRep
    Bplus: np.ndarray = field(repr=False)
    Bminus: np.ndarray = field(repr=False)
    sigma_plus: int
    sigma_minus: int

    def _pairing(self, tag: str) -> tuple:
        """(B, sigma, s) of the pairing named by tag."""
        pairings = {
            "plus": (self.Bplus, self.sigma_plus, 1),
            "minus": (self.Bminus, self.sigma_minus, -1),
        }
        if tag not in pairings:
            raise ValueError(f"unknown pairing tag {tag!r}; use 'plus' or 'minus'")
        return pairings[tag]

    def B(self, tag: str) -> np.ndarray:
        return self._pairing(tag)[0]

    def sigma(self, tag: str) -> int:
        return self._pairing(tag)[1]

    def s(self, tag: str) -> int:
        return self._pairing(tag)[2]

    def to_json(self) -> str:
        payload = json.loads(self.rep.to_json())
        payload["Bplus"] = self.Bplus.tolist()
        payload["Bminus"] = self.Bminus.tolist()
        payload["sigma_plus"] = self.sigma_plus
        payload["sigma_minus"] = self.sigma_minus
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, what: str):
    if not cond:
        raise RuntimeError(f"pairing construction invariant violated: {what}")


@lru_cache(maxsize=None)
def build_pairings(rep: GammaRep) -> PairedRep:
    """Construct and verify the two admissible pairings of a representation.

    The auxiliary invariant inner product is the average of Gamma_I^T
    Gamma_I over all blades (the sign pairs of the full signed group
    cancel).  Multiplying by the volume blade of the plus or minus
    factor, according to the parity of p, yields the two pairings.
    """
    sig = rep.sig
    n = sig.n_blades
    blades = rep.blade_table.reshape(n, rep.N, rep.N)
    M = np.einsum("kji,kjl->il", blades, blades) / n

    nu_plus_mask = (1 << sig.p) - 1
    nu_minus_mask = (n - 1) ^ nu_plus_mask
    if sig.p % 2 == 1:
        raw_plus, raw_minus = M @ blades[nu_plus_mask], M @ blades[nu_minus_mask]
    else:
        raw_plus, raw_minus = M @ blades[nu_minus_mask], M @ blades[nu_plus_mask]

    # scale so the largest-magnitude entry of Bplus is exactly +1
    Bplus = raw_plus / raw_plus.flat[np.abs(raw_plus).argmax()]

    # fix Bminus through the exact volume-blade relation
    Gnu = blades[n - 1]
    d = sig.d
    inv_coef = (-1.0) ** (d * (d - 1) // 2) * sig.blade_signs()[n - 1]
    Bminus = (-1.0) ** (sig.q // 2) * Bplus @ (inv_coef * Gnu)

    ratio = np.vdot(raw_minus, Bminus) / np.vdot(raw_minus, raw_minus)
    _require(
        abs(ratio) > 1e-12 and np.allclose(Bminus, ratio * raw_minus, atol=1e-12),
        "Bminus not proportional to the averaged construction",
    )

    sigma_plus, sigma_minus = PAIRING_SYMMETRY[(d // 2) % 4]
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


def s_transpose(pr: PairedRep, s: int, a: Multivector) -> Multivector:
    """Algebra-side transpose matching matrix transposition under a pairing.

    For s = +1 this is the reversal tau, for s = -1 the composition
    pi o tau, so that Bs @ quantize(a) = quantize(s_transpose(a)).T @ Bs.
    """
    if s == 1:
        return tau(a)
    if s == -1:
        return pi_tau(a)
    raise ValueError(f"adjoint type must be +1 or -1, got {s!r}")


@dataclass(frozen=True, eq=False)
class Spinor:
    """Element of the module a representation acts on."""

    rep: GammaRep
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=np.float64).copy()
        if comps.shape != (self.rep.N,):
            raise ValueError(
                f"spinor must have {self.rep.N} components, got shape {comps.shape}"
            )
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)
