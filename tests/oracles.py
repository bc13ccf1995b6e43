"""Slow reference implementations used only by the tests.

The algebra references work on explicit index lists with bubble-sort
swap counting, so they share no code path (and hopefully no bugs) with
the bitmask tables inside the package. Expected values frozen into the
test files were produced by these functions. The square-variety
references test the sandwich identity, on seeded probes as
verify_square_conditions did before its rank-one fit, and on every
basis blade. The campaign reference scores one sample point at a time,
as run_campaign did before it stacked its points. The stencil reference
takes centered differences one call per stencil point, as geometry_lab
did before its jets evaluated each distinct point once. The
representation references keep the int64 blade matrices and the einsum
trace pairing that dequantize used before it became one product with
the blade table, and the group-averaged pairings that build_pairings
built before it read them off the volume blades; the square-test and
lowdim references are the Multivector-arithmetic forms (the
s-transpose residual, the rank-one fit through the numpy wrappers, and
contract through two dense products) that the package used before it
read coefficient arrays through cached sign and index vectors. The form references hold the
chart layer's former tensor calculus: forms as alternating covariant
tensors without the 1/k! factor, the Hodge dual by the permutation
symbol, the heterotic and Bianchi residuals evaluated with them, and
the Killing pair system scored as tensors, before it was scored on the
polyform u + u ^ l. The curvature reference builds the full Riemann
tensor by einsum and traces it, as geometry_lab did before it took
Ricci by one direct contraction, with the einsum Christoffel symbols
and covariant derivative of that time. The lifting, embedding and
Halton references are geometry_lab's former per-call forms: callbacks
lifted row by row through np.stack, entries placed through
np.index_exp, and the Halton draw summed base by base with a cumsum
over a per-base digit table. The preset references write the value of
every field of each named preset as a one-point numpy expression, which
kaspin._jets differentiates exactly: the reference of the presets'
hand-written partials.
The samplers at the end draw the tests' random spinors and pairs.
"""

import dataclasses
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np


def mask_to_indices(mask):
    """Bitmask -> ascending tuple of 1-based basis indices."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def indices_to_mask(indices):
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def blade_product(ia, ib, diag):
    """Clifford product of two basis blades given as index tuples.

    diag[i] is the square of the i-th basis covector (+1 or -1,
    1-based). Returns (coefficient, ascending index tuple). Signs are
    counted one transposition at a time; equal neighbours contract
    against the metric.
    """
    seq = list(ia) + list(ib)
    sign = 1
    swapped = True
    while swapped:
        swapped = False
        for k in range(len(seq) - 1):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
                swapped = True
    out = []
    k = 0
    while k < len(seq):
        if k + 1 < len(seq) and seq[k] == seq[k + 1]:
            sign *= diag[seq[k]]
            k += 2
        else:
            out.append(seq[k])
            k += 1
    return sign, tuple(out)


def blade_wedge(ia, ib):
    """Exterior product of two basis blades; 0 coefficient on overlap."""
    if set(ia) & set(ib):
        return 0, ()
    seq = list(ia) + list(ib)
    sign = 1
    swapped = True
    while swapped:
        swapped = False
        for k in range(len(seq) - 1):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
                swapped = True
    return sign, tuple(seq)


def metric_diag(p, q):
    """1-based dict of basis covector squares for signature (p, q)."""
    return {i: (1 if i <= p else -1) for i in range(1, p + q + 1)}


def slow_geometric_product(p, q, a, b):
    """Dense geometric product computed blade by blade."""
    diag = metric_diag(p, q)
    n = 1 << (p + q)
    out = np.zeros(n)
    for ma in range(n):
        ca = a[ma]
        if ca == 0.0:
            continue
        for mb in range(n):
            cb = b[mb]
            if cb == 0.0:
                continue
            coeff, idx = blade_product(mask_to_indices(ma), mask_to_indices(mb), diag)
            out[indices_to_mask(idx)] += coeff * ca * cb
    return out


def slow_wedge(p, q, a, b):
    """Dense exterior product computed blade by blade."""
    n = 1 << (p + q)
    out = np.zeros(n)
    for ma in range(n):
        ca = a[ma]
        if ca == 0.0:
            continue
        for mb in range(n):
            cb = b[mb]
            if cb == 0.0:
                continue
            coeff, idx = blade_wedge(mask_to_indices(ma), mask_to_indices(mb))
            if coeff:
                out[indices_to_mask(idx)] += coeff * ca * cb
    return out


class ProbeVerdict(NamedTuple):
    """A square verdict by the sandwich identity and its residuals."""

    is_square: bool
    residual_symmetry: float
    residual_idempotent: float
    residual_sandwich: float
    witness_found: bool


def _symmetry_residual(pr, pairing_tag, ahat):
    from kaspin.clifford_rep import s_transpose

    pairing = pr.pairing(pairing_tag)
    return (s_transpose(pairing.s, ahat) - pairing.sigma * ahat).norm_inf()


def slow_verify_square_conditions(pr, pairing_tag, alpha, n_probes=10, seed=0, tol=1e-9):
    """The square verdict by the sandwich identity on probes, one product pair each.

    Tests the s-transpose symmetry, alpha <> alpha = S(alpha) alpha, and
    alpha <> beta <> alpha = S(alpha <> beta) alpha for the probes 1, nu,
    the basis one-forms, n_probes seeded random polyforms and the
    monomial at alpha's largest coefficient, on alpha at unit max-norm.
    """
    from kaspin.ka_core import Multivector, geometric_product, ka_trace
    from helpers import make_rng, random_multivector

    sig = pr.rep.sig
    scale = alpha.norm_inf()
    if scale == 0.0:
        return ProbeVerdict(True, 0.0, 0.0, 0.0, True)
    ahat = alpha * (1.0 / scale)

    r_sym = _symmetry_residual(pr, pairing_tag, ahat)
    r_idem = (geometric_product(ahat, ahat) - ka_trace(ahat) * ahat).norm_inf()

    probes = [Multivector.scalar(sig, 1.0), Multivector.volume(sig)]
    for i in range(1, sig.d + 1):
        probes.append(Multivector.basis(sig, (i,)))
    rng = make_rng(seed, stream=53)
    for _ in range(n_probes):
        probes.append(random_multivector(sig, rng))
    # the monomial dual to the largest coefficient always has a nonzero
    # trace against alpha
    top = np.zeros(sig.n_blades)
    top[int(np.argmax(np.abs(ahat.coeffs)))] = 1.0
    probes.append(Multivector(sig, top))

    r_sandwich = 0.0
    witness = False
    for beta in probes:
        ab = geometric_product(ahat, beta)
        t = ka_trace(ab)
        r_sandwich = max(r_sandwich, (geometric_product(ab, ahat) - t * ahat).norm_inf())
        if abs(t) > tol:
            witness = True

    ok = witness and max(r_sym, r_idem, r_sandwich) <= tol
    return ProbeVerdict(ok, r_sym, r_idem, r_sandwich, witness)


def full_basis_verify_square_conditions(pr, pairing_tag, alpha, tol=1e-9):
    """The square verdict by the sandwich identity on every basis blade.

    The sandwich alpha <> beta <> alpha = S(alpha <> beta) alpha is linear
    in beta, so the 2^d blades (1 among them, which gives idempotency)
    test it for every beta. Both products are taken for all blades at
    once, as stacked rows of the identity multiplied by alpha on the
    right: the left product is alpha <> x = tau(tau(x) <> tau(alpha)).
    """
    from kaspin import _kernels

    sig = pr.rep.sig
    scale = alpha.norm_inf()
    if scale == 0.0:
        return ProbeVerdict(True, 0.0, 0.0, 0.0, True)
    ahat = alpha * (1.0 / scale)
    t = sig.tables()
    ab = _kernels.product(np.diag(t.tau), ahat.coeffs * t.tau, t.sign, t.xor) * t.tau
    traces = 2.0 ** (sig.d // 2) * ab[:, 0]
    aba = _kernels.product(ab, ahat.coeffs, t.sign, t.xor)
    residuals = np.max(np.abs(aba - np.outer(traces, ahat.coeffs)), axis=1)
    r_sym = _symmetry_residual(pr, pairing_tag, ahat)
    witness = bool(np.any(np.abs(traces) > tol))
    ok = witness and max(r_sym, float(np.max(residuals))) <= tol
    return ProbeVerdict(ok, r_sym, float(residuals[0]), float(np.max(residuals)), witness)


def slow_point_residuals(ps, check, x):
    """The residuals of one campaign check at the single point x, name -> float.

    geometry_lab.score at one point.  On a surface preset the pair is the
    explicit walker_killing_data of its K, scored as a hand-written pair
    is, not from the block's fused read of F, K and q2.
    """
    from kaspin.geometry_lab import score, walker_killing_data

    if ps.killing is None and ps.walker is not None:
        ps = dataclasses.replace(ps, killing=walker_killing_data(ps.walker))
    return {name: float(value) for name, value in score(ps, check, x).items()}


def slow_run_campaign(ps, check, n_points=20, seed=0, tol=1e-6, perturb=0.0):
    """geometry_lab.run_campaign as one point at a time, without worst points."""
    from kaspin.geometry_lab import _finite, _halton, _perturbed, require_check

    require_check(ps, check)
    perturb = _finite("perturb", perturb)
    if perturb:
        ps = _perturbed(ps, perturb)
    lower, upper = np.asarray(ps.sample_box, dtype=float).T
    pts = _halton(n_points, seed) * (upper - lower) + lower
    if lower[3] > 0.0:
        pts[:, 3] = np.maximum(pts[:, 3], 0.05)

    values: dict[str, list[float]] = {}
    for x in pts:
        for name, value in slow_point_residuals(ps, check, x).items():
            values.setdefault(name, []).append(value)

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


# ---------------------------------------------------------------------------
# centered differences, one call per stencil point
# ---------------------------------------------------------------------------

_FD_SCALE = 1e-5
_pow = np.float_power


def _per_point(a, like):
    """Reshape point values a to broadcast against like, whose leading axes are the points."""
    a = np.asarray(a)
    return a.reshape(a.shape + (1,) * (np.ndim(like) - a.ndim))


def _fd_steps(x):
    return _FD_SCALE * (1.0 + np.abs(x))


def _fd_at(f, x, h, *steps):
    """f at x moved by sign * h[k] along each (k, sign) step: one call per stencil point."""
    p = x.copy()
    for k, sign in steps:
        p[..., k] += sign * h[..., k]
    return np.asarray(f(p), float)


def _fd_jacobian(f, x):
    """Centered differences; the axis after the point axes is the derivative direction."""
    x = np.asarray(x, dtype=float)
    h = _fd_steps(x)
    rows = []
    for k in range(x.shape[-1]):
        diff = _fd_at(f, x, h, (k, 1)) - _fd_at(f, x, h, (k, -1))
        rows.append(diff / _per_point(2.0 * h[..., k], diff))
    return np.stack(rows, axis=x.ndim - 1)


def _fd_second(f, x):
    """Second partials; the two axes after the point axes are derivative directions."""
    x = np.asarray(x, dtype=float)
    h = _fd_steps(x)
    f0 = np.asarray(f(x), dtype=float)
    n = x.shape[-1]
    at = functools.partial(_fd_at, f, x, h)
    out = np.zeros((n, n) + f0.shape)
    for m in range(n):
        out[m, m] = (at((m, 1)) - 2.0 * f0 + at((m, -1))) / _per_point(_pow(h[..., m], 2), f0)
        for k in range(m + 1, n):
            corners = at((m, 1), (k, 1)) - at((m, 1), (k, -1)) - at((m, -1), (k, 1))
            out[m, k] = out[k, m] = (corners + at((m, -1), (k, -1))) / _per_point(
                4.0 * h[..., m] * h[..., k], f0)
    return np.moveaxis(out, (0, 1), (x.ndim - 1, x.ndim))


# ---------------------------------------------------------------------------
# blade matrices, the einsum trace pairing and the averaged pairings
# ---------------------------------------------------------------------------


def blade_matrices(rep):
    """int64 (n_blades, N, N) blade matrices Gamma_I, by the recursion over the lowest bit."""
    n = rep.sig.n_blades
    N = rep.N
    blades = np.empty((n, N, N), dtype=np.int64)
    blades[0] = np.eye(N, dtype=np.int64)
    for mask in range(1, n):
        low = mask & -mask
        blades[mask] = rep.gammas[low.bit_length() - 1] @ blades[mask ^ low]
    return blades


def einsum_dequantize(rep, E):
    """Unique multivector whose quantization is the given endomorphism."""
    from kaspin.ka_core import Multivector

    E = np.asarray(E, dtype=np.float64)
    if E.shape != (rep.N, rep.N):
        raise ValueError(f"expected a {rep.N}x{rep.N} matrix, got {E.shape}")
    traces = np.einsum("kij,ji->k", blade_matrices(rep), E)
    t = rep.sig.tables()
    coeffs = t.tau * t.metric * traces / rep.N
    return Multivector(rep.sig, coeffs)


def averaged_pairings(rep):
    """(Bplus, Bminus) by group averaging, the construction build_pairings used before.

    The invariant inner product M is the mean of Gamma_I^T Gamma_I over
    all blades; the raw plus pairing is M times the volume blade of the
    plus or minus factor (by the parity of p), scaled so its largest
    entry is +1, and Bminus follows from the volume-blade relation.
    """
    sig = rep.sig
    n = sig.n_blades
    blades = rep.blade_table.reshape(n, rep.N, rep.N)
    M = np.einsum("kji,kjl->il", blades, blades) / n
    nu_plus_mask = (1 << sig.p) - 1
    nu_mask = nu_plus_mask if sig.p % 2 == 1 else (n - 1) ^ nu_plus_mask
    raw_plus = M @ blades[nu_mask]
    Bplus = raw_plus / raw_plus.flat[np.abs(raw_plus).argmax()]
    t = sig.tables()
    Bminus = (-1.0) ** (sig.q // 2) * Bplus @ (t.tau[-1] * t.metric[-1] * blades[n - 1])
    return Bplus, Bminus


# ---------------------------------------------------------------------------
# the square test by Multivector arithmetic
# ---------------------------------------------------------------------------


class _RankOneFit(NamedTuple):
    scale: float
    eta: np.ndarray
    c: float
    residual: float


def _rank_one_fit(B, E):
    scale = float(np.max(np.abs(E)))
    if scale == 0.0:
        return _RankOneFit(0.0, np.zeros(len(E)), 0.0, 0.0)
    # fit on unit max-norm so no product of entries over- or underflows
    Ehat = E / scale
    eta = Ehat[:, int(np.argmax(np.linalg.norm(Ehat, axis=0)))]
    model = np.outer(eta, eta @ B)
    c = float(np.vdot(model, Ehat) / np.vdot(model, model))
    return _RankOneFit(scale, eta, c, float(np.max(np.abs(Ehat - c * model))))


def _square_test(pr, pairing_tag, alpha):
    import math

    from kaspin.clifford_rep import quantize, s_transpose
    from kaspin.ka_core import Multivector

    norm = float(np.max(np.abs(alpha.coeffs)))
    shift = 2 * (math.frexp(norm)[1] // 2)
    E = quantize(pr.rep, Multivector(alpha.sig, np.ldexp(alpha.coeffs, -shift)))
    pairing = pr.pairing(pairing_tag)
    fit = _rank_one_fit(pairing.B, E)
    if norm == 0.0:
        return fit, shift, 0.0
    ahat = alpha * (1.0 / norm)
    r_sym = s_transpose(pairing.s, ahat) - pairing.sigma * ahat
    return fit, shift, float(np.max(np.abs(r_sym.coeffs)))


def multivector_verify_square_conditions(pr, pairing_tag, alpha, tol=1e-9):
    """(is_square, residual_symmetry, residual_rank_one, tol), as the report was computed."""
    fit, _, r_sym = _square_test(pr, pairing_tag, alpha)
    ok = fit.scale == 0.0 or (fit.c != 0.0 and r_sym <= tol and fit.residual <= tol)
    return ok, r_sym, fit.residual, tol


def multivector_reconstruct(pr, pairing_tag, alpha, tol=1e-8):
    """(spinor components, kappa, residual) of the reconstruction, or the error it raised."""
    from kaspin.spinor_square import ReconstructionError

    rep = pr.rep
    fit, shift, r_sym = _square_test(pr, pairing_tag, alpha)
    if fit.scale == 0.0:
        return np.zeros(rep.N), 0, 0.0
    if fit.c == 0.0:
        raise ReconstructionError("polyform is not reconstructible: degenerate fit")
    kappa = 1 if fit.c > 0 else -1
    xi = np.sqrt(abs(fit.c)) * np.ldexp(np.sqrt(fit.scale), shift // 2) * fit.eta
    if not fit.residual <= tol:
        raise ReconstructionError(
            f"polyform is not reconstructible: rank-one fit residual {fit.residual:.3e}"
        )
    if not r_sym <= tol:
        raise ReconstructionError(
            f"polyform is not reconstructible: symmetry residual {r_sym:.3e}"
        )
    return xi, kappa, fit.residual


# ---------------------------------------------------------------------------
# the (3,1) pair and (2,2) chiral forms by Multivector arithmetic
# ---------------------------------------------------------------------------


def _lorentz():
    from kaspin.ka_core import Signature

    return Signature(3, 1)


def _h(a, b):
    from kaspin.ka_core import inner

    if a.sig != _lorentz():
        raise ValueError("signature mismatch")
    return inner(a, b)


def _norm_inf(a):
    return float(np.max(np.abs(a.coeffs)))


def _is_one_form(a, tol):
    return _norm_inf(a - a.grade(1)) <= tol * max(1.0, _norm_inf(a))


def multivector_pair(u, l):
    """(u, l) after the checks a parabolic pair makes on construction."""
    if u.sig != _lorentz() or l.sig != _lorentz():
        raise ValueError("parabolic pairs live in signature (3,1)")
    tol = 1e-9
    if not (_is_one_form(u, tol) and _is_one_form(l, tol)):
        raise ValueError("pair members must be one-forms")
    scale = max(1.0, _norm_inf(u), _norm_inf(l)) ** 2
    if _norm_inf(u) <= tol:
        raise ValueError("u must be nonzero")
    if abs(_h(u, u)) > tol * scale:
        raise ValueError("u must be null")
    if abs(_h(l, l) - 1.0) > tol * scale:
        raise ValueError("l must have unit norm")
    if abs(_h(u, l)) > tol * scale:
        raise ValueError("u and l must be orthogonal")
    return u, l


def _reject(reason):
    raise ValueError(f"not a spinor square: {reason}")


def multivector_polyform_to_pair(alpha, tol=1e-9):
    """The parabolic pair (u, l) of a Lorentzian square, contracting by two dense products."""
    from kaspin.ka_core import Multivector, contract, wedge

    sig = _lorentz()
    if alpha.sig != sig:
        raise ValueError("expected a multivector in signature (3,1)")
    scale = max(1.0, _norm_inf(alpha))
    u = alpha.grade(1)
    omega = alpha.grade(2)
    if _norm_inf(alpha - u - omega) > tol * scale:
        _reject("components outside grades 1 and 2")
    if _norm_inf(u) <= tol * scale:
        _reject("grade-1 part vanishes")
    if abs(_h(u, u)) > tol * scale * scale:
        _reject("grade-1 part is not null")
    if _norm_inf(omega) <= tol * scale:
        _reject("grade-2 part vanishes, no unit transverse factor exists")

    r = sig.tables().metric[[1, 2, 4, 8]] * u.one_form_components()
    pivot = int(np.argmax(np.abs(r)))
    theta = Multivector.basis(sig, (pivot + 1,))
    l0 = contract(theta, omega) * (1.0 / r[pivot])
    if _norm_inf(wedge(u, l0) - omega) > tol * scale:
        _reject("grade-2 part is not divisible by the grade-1 part")
    if abs(_h(l0, l0) - 1.0) > tol * max(1.0, scale):
        _reject("transverse factor is not of unit norm")

    u, l0 = multivector_pair(u, l0)
    return multivector_normalize_gauge(u, l0, Multivector.basis(sig, (4,)), tol=tol)


def multivector_normalize_gauge(u, l, v, tol=1e-9):
    """Shift l along u so that it is orthogonal to the timelike unit v."""
    if not _is_one_form(v, tol) or abs(_h(v, v) + 1.0) > tol:
        raise ValueError("gauge direction must be a unit timelike one-form")
    huv = _h(u, v)
    if abs(huv) <= tol:
        raise ValueError("u is orthogonal to the gauge direction; bad input")
    f = -_h(l, v) / huv
    return multivector_pair(u, l + f * u)


def multivector_pair_to_flag(u, l):
    """(W1, W2, W3) spans of the degenerate flag of a pair."""
    from kaspin.ka_core import Multivector

    r = _lorentz().tables().metric[[1, 2, 4, 8]] * u.one_form_components()
    pivot = int(np.argmax(np.abs(r)))
    w3 = []
    for j in range(4):
        if j == pivot:
            continue
        comps = np.zeros(4)
        comps[j] = 1.0
        comps[pivot] = -r[j] / r[pivot]
        w3.append(Multivector.covector(_lorentz(), comps))
    return (u,), (u, l), tuple(w3)


def multivector_check_22_chiral_square(alpha, tol=1e-9):
    """Whether alpha is a self-dual two-form of zero norm in (2,2)."""
    from kaspin.ka_core import Signature, hodge_star, inner

    sig = Signature(2, 2)
    if alpha.sig != sig:
        raise ValueError("expected a multivector in signature (2,2)")
    scale = max(1.0, _norm_inf(alpha))
    two = alpha.grade(2)
    if _norm_inf(alpha - two) > tol * scale:
        return False
    if _norm_inf(hodge_star(two) - two) > tol * scale:
        return False
    return abs(inner(two, two)) <= tol * scale * scale


def _t(a, *perm):
    """Transpose the trailing len(perm) axes of a; the point axes stay in front."""
    lead = a.ndim - len(perm)
    return a.transpose(*range(lead), *(lead + p for p in perm))


# ---------------------------------------------------------------------------
# curvature through the full Riemann tensor
# ---------------------------------------------------------------------------


def _braces(dg):
    return _t(dg, 1, 0, 2) + _t(dg, 1, 2, 0) - dg


def christoffel(jet, ginv):
    """Gamma[..., k, i, j] = Gamma^k_ij from a chart jet (g, dg, ...) and g^-1, by einsum."""
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, _braces(jet[1]))


def nabla(gamma, jet):
    """(nabla omega)[..., i, j] = d_i omega_j - Gamma^k_ij omega_k from the jet (omega, d omega)."""
    return jet[1] - np.einsum("...kij,...k->...ij", gamma, jet[0])


def riemann(jet, ginv):
    """R[..., r, s, m, n] = R^r_smn from a second-order chart jet (g, dg, d2g) and g^-1.

    R^r_smn = d_m Gamma^r_ns - d_n Gamma^r_ms + Gamma^r_ml Gamma^l_ns -
    Gamma^r_nl Gamma^l_ms, with d_m Gamma from d_m g^-1 = -g^-1 d_m g g^-1
    and the derivatives of the braces.
    """
    _, dg, d2g = jet
    braces = _braces(dg)
    dbraces = _t(d2g, 0, 2, 1, 3) + _t(d2g, 0, 2, 3, 1) - d2g
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", ginv, dg, ginv)
    gamma = christoffel(jet, ginv)
    dgamma = 0.5 * np.einsum("...mkl,...lij->...mkij", dginv, braces)
    dgamma += 0.5 * np.einsum("...kl,...mlij->...mkij", ginv, dbraces)
    t = np.einsum("...mrns->...rsmn", dgamma)
    gg = np.einsum("...rml,...lns->...rsmn", gamma, gamma)
    return t - _t(t, 0, 1, 3, 2) + gg - _t(gg, 0, 1, 3, 2)


def ricci(jet, ginv):
    """Ric_sn = R^r_srn, the trace of riemann."""
    return np.einsum("...rsrn->...sn", riemann(jet, ginv))


def on_chart(kernel, chart, x, order):
    """kernel(jet, g^-1) with the chart's jet to order at x, checked inside the chart domain."""
    from kaspin.geometry_lab import _chart_jet

    return kernel(*_chart_jet(chart, x, order))


# ---------------------------------------------------------------------------
# forms as alternating tensors
# ---------------------------------------------------------------------------


def _perm_sign(perm):
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


@functools.cache
def _levi_civita(n):
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = _perm_sign(perm)
    return eps


_RAISE = {
    1: "...Aa,...a->...A",
    2: "...Aa,...Bb,...ab->...AB",
    3: "...Aa,...Bb,...Cc,...abc->...ABC",
    4: "...Aa,...Bb,...Cc,...Dd,...abcd->...ABCD",
}


def _star(g, omega):
    """The Hodge dual of the alternating tensor omega on the metric g at the points.

    The orientation is dx^0 ^ ... ^ dx^(n - 1).
    """
    omega = np.asarray(omega, dtype=float)
    lead = g.shape[:-2]
    k = omega.ndim - len(lead)
    n = g.shape[-1]
    root = np.sqrt(np.abs(np.linalg.det(g)))
    eps = _levi_civita(n)
    if k == 0:
        return np.reshape(root * omega, lead + (1,) * n) * eps
    ginv = np.linalg.inv(g)
    raised = np.einsum(_RAISE[k], *([ginv] * k + [omega]))
    dual = (raised.reshape(lead + (1, n**k)) @ eps.reshape(n**k, -1)).reshape(lead + (n,) * (n - k))
    return _per_point(root / math.factorial(k), dual) * dual


def _wedge_oneforms(*forms):
    """Wedge of one-forms as a tensor, no 1/k! factor."""
    forms = [np.asarray(f, dtype=float) for f in forms]
    out = 0.0
    for perm in itertools.permutations(range(len(forms))):
        term = np.array(1.0)
        for j, p in enumerate(perm):
            f = forms[p]
            term = term[..., None] * f.reshape(f.shape[:-1] + (1,) * j + f.shape[-1:])
        out = out + _perm_sign(perm) * term
    return out


def _wedge_two_forms(a, b):
    # det convention: antisymmetrize the outer product over S4 and
    # divide by 2!2! for the two-form factors
    t = np.einsum("...ij,...kl->...ijkl", a, b)
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(4)):
        out += _perm_sign(perm) * _t(t, *perm)
    return out / 4.0


def tensor_from_stack(c, k):
    """The degree-k part of a (..., 16) coefficient stack as an alternating tensor, no 1/k!."""
    c = np.asarray(c, dtype=float)
    if k == 0:
        return c[..., 0]
    out = np.zeros(c.shape[:-1] + (4,) * k)
    for idx in itertools.combinations(range(4), k):
        coeff = c[..., sum(1 << i for i in idx)].reshape(c.shape[:-1] + (1,) * k)
        out = out + coeff * _wedge_oneforms(*(np.eye(4)[i] for i in idx))
    return out


def stack_from_tensor(tensor, k):
    """The (..., 16) coefficient stack of an degree-k tensor, coeff_{i<j<...} = T_{ij...}."""
    tensor = np.asarray(tensor, dtype=float)
    lead = tensor.shape[:tensor.ndim - k]
    out = np.zeros(lead + (16,))
    for idx in itertools.combinations(range(4), k):
        out[..., sum(1 << i for i in idx)] = tensor[(Ellipsis, *idx)]
    return out


def _tensor_flux(hc, x):
    return tensor_from_stack(hc.H.value(x), 3)


def _tensor_gaugino_fit(hc, ginv, u, x):
    from kaspin.geometry_lab import _max_abs

    worst = np.zeros(u.shape[:-1])
    if not hc.gauge:
        return worst
    c = (ginv @ u[..., :, None])[..., 0]
    _, _, vt = np.linalg.svd(c[..., None, :])
    null_basis = _t(vt[..., 1:, :], 1, 0)
    flat = u.shape[:-1] + (16,)
    cols = np.stack([_wedge_oneforms(u, e).reshape(flat) for e in np.eye(4)], axis=-1)
    design = cols @ null_basis
    # least squares by the pseudoinverse, with lstsq's default cut-off
    solve = np.linalg.pinv(design, rcond=16 * np.finfo(float).eps)
    for _, curvature in hc.gauge:
        target = tensor_from_stack(curvature.value(x), 2).reshape(flat)
        fit = _max_abs((design @ (solve @ target[..., None]))[..., 0] - target, 1)
        worst = np.maximum(worst, fit)
    return worst


def _tensor_coclosed_residual(chart, hc, x):
    from kaspin.geometry_lab import _zeros

    if hc.H is None:
        return _zeros(x)

    def density(p):
        g = chart.value(p)
        rho = _star(g, _tensor_flux(hc, p))
        root = np.sqrt(np.abs(np.linalg.det(g)))
        return root[..., None] * (np.linalg.inv(g) @ rho[..., None])[..., 0]

    divergence = np.trace(_fd_jacobian(density, x), axis1=-2, axis2=-1)
    return np.abs(divergence) / np.sqrt(np.abs(np.linalg.det(chart.value(x))))


def tensor_algebraic_relations(g, u, l, phi, rho):
    """The five algebraic heterotic relations as tensors, zero where they hold.

    (star_identity_u, star_identity_ul, star_identity_l, u_phi_orthogonal,
    u_rho_orthogonal) on the metric components g at the points; on the
    set where they vanish, <rho, phi> vanishes too.
    """
    from kaspin.geometry_lab import _pair

    ginv = np.linalg.inv(g)
    star = functools.partial(_star, g)
    return (
        _wedge_oneforms(phi, u) - star(_wedge_oneforms(rho, u)),
        _wedge_oneforms(phi, u, l) + _pair(rho, ginv, l)[..., None, None, None] * star(u),
        star(_wedge_oneforms(l, u, rho)) + _pair(phi, ginv, l)[..., None] * u,
        _pair(u, ginv, phi),
        _pair(u, ginv, rho),
    )


def tensor_heterotic_residuals(ps, x):
    """The heterotic relations of the preset ps with every form an alternating tensor.

    geometry_lab scored these before it scored the polyform u + u ^ l, on
    the pair ps.killing and the background ps.heterotic; H and the gauge
    curvatures are read as stacks and expanded to tensors. grad_l's rho term is -1/2 *(rho ^
    l): with the former +1/2 the pair fitted no spin lift of the torsion
    connection, while -1/2 is nabla_X alpha = -1/4 (i_X H <> alpha - alpha
    <> i_X H) with H = *rho (README, "How campaigns are scored").
    """
    from kaspin.geometry_lab import _chart_jet, _max_abs, _pair, _zeros

    x = np.asarray(x, dtype=float)
    chart, hc, kd = ps.chart, ps.heterotic, ps.killing
    jet, ginv = _chart_jet(chart, x, 1)
    u_jet, l_jet, phi_jet = kd.u.jet(x, 1), kd.l.jet(x, 1), hc.varphi.jet(x, 1)
    u, l, phi = u_jet[0], l_jet[0], phi_jet[0]
    rho = _zeros(x, 4) if hc.H is None else _star(jet[0], _tensor_flux(hc, x))
    star_u, star_ul, star_l, u_phi, u_rho = tensor_algebraic_relations(jet[0], u, l, phi, rho)

    res = {}
    res["star_identity_u"] = _max_abs(star_u, 2)
    res["star_identity_ul"] = _max_abs(star_ul, 3)
    res["star_identity_l"] = _max_abs(star_l, 1)
    res["u_phi_orthogonal"] = np.abs(u_phi)
    res["u_rho_orthogonal"] = np.abs(u_rho)
    res["rho_phi_orthogonal"] = np.abs(_pair(rho, ginv, phi))
    res["gaugino_fit"] = _tensor_gaugino_fit(hc, ginv, u, x)
    gamma = christoffel(jet, ginv)
    res["grad_u"] = _max_abs(nabla(gamma, u_jet) - 0.5 * _wedge_oneforms(u, phi), 2)
    defect = nabla(gamma, l_jet) + 0.5 * _star(jet[0], _wedge_oneforms(rho, l))
    # defect = kappa (x) u for some kappa: each row wedged with u vanishes
    rows_wedge_u = _wedge_oneforms(defect, u[..., None, :])
    res["grad_l"] = _max_abs(rows_wedge_u, 3) / _max_abs(u, 1)
    res["rho_coclosed"] = _tensor_coclosed_residual(chart, hc, x)
    jac = phi_jet[1]
    res["dphi_closed"] = _max_abs(jac - _t(jac, 1, 0), 2)
    return res


def tensor_bianchi_residual(hc, x):
    """geometry_lab's bianchi check with every form an alternating tensor.

    The partials d_i H come from H's own jet, as the check reads them; dH
    is their antisymmetrization as tensors.
    """
    from kaspin.geometry_lab import _max_abs, _zeros

    x = np.asarray(x, dtype=float)
    if hc.H is None:
        d_h = _zeros(x, 4, 4, 4, 4)
    else:
        jac = tensor_from_stack(hc.H.jet(x, 1)[1], 3)
        d_h = jac - _t(jac, 1, 0, 2, 3) + _t(jac, 1, 2, 0, 3) - _t(jac, 1, 2, 3, 0)
    source = 0.0
    for sign, curvature in hc.gauge:
        two_form = tensor_from_stack(curvature.value(x), 2)
        source = source + sign * _wedge_two_forms(two_form, two_form)
    return _max_abs(d_h - source, 4)


class TensorKillingResiduals(NamedTuple):
    d_u: np.ndarray  # nabla_i u_j - lam (u_i l_j - l_i u_j), per point
    r_u: np.ndarray  # max |d_u|
    r_l: np.ndarray  # how far the rows of nabla l - lam (l (x) l - g) are from multiples of u
    parabolic: np.ndarray  # the pair invariants, floored at max(1, |u|, |l|)^2


def tensor_killing_residuals(chart, kd, x):
    """The pair system scored as tensors, as the killing check did before it scored alpha.

    r_u tests nabla u = lam (u (x) l - l (x) u) and r_l nabla l = kappa (x)
    u + lam (l (x) l - g) for some kappa (each defect row wedged with u
    vanishes). parabolic is max(|<u,u>|, |<l,l> - 1|, |<u,l>|) over
    max(1, |u|, |l|)^2, the floored invariant rule that let a spacelike
    u = 1e-4 dx^0 pass.
    """
    x = np.asarray(x, dtype=float)
    gamma = on_chart(christoffel, chart, x, 1)
    g = chart.value(x)
    ginv = np.linalg.inv(g)
    lam, u, l = kd.lam, kd.u.value(x), kd.l.value(x)
    d_u = nabla(gamma, kd.u.jet(x, 1)) - lam * _wedge_oneforms(u, l)
    defect = nabla(gamma, kd.l.jet(x, 1)) - lam * (l[..., :, None] * l[..., None, :] - g)
    rows_wedge_u = _wedge_oneforms(defect, u[..., None, :])
    r_l = np.max(np.abs(rows_wedge_u), axis=(-3, -2, -1)) / np.max(np.abs(u), axis=-1)

    def pair(a, b):
        return np.einsum("...i,...ij,...j->...", a, ginv, b)

    size = np.maximum(1.0, np.maximum(np.max(np.abs(u), axis=-1), np.max(np.abs(l), axis=-1)))
    invariants = np.maximum(np.maximum(np.abs(pair(u, u)), np.abs(pair(l, l) - 1.0)),
                            np.abs(pair(u, l)))
    return TensorKillingResiduals(d_u, np.max(np.abs(d_u), axis=(-2, -1)), r_l, invariants / size**2)


# ---------------------------------------------------------------------------
# callback lifting, embedding and the Halton draw, per row and per base
# ---------------------------------------------------------------------------


def pointwise(fn):
    """Lift a callable of one point that returns one array to (..., d) stacks, point by point."""
    if fn is None:
        return None

    def lifted(x):
        x = np.asarray(x, dtype=float)
        values = np.stack([np.asarray(fn(p), dtype=float) for p in x.reshape(-1, x.shape[-1])])
        return values.reshape(x.shape[:-1] + values.shape[1:])

    return lifted


def embed(x, shape, *entries):
    """Arrays of the given shape per point of x, zero but for the (index, value) entries."""
    out = np.zeros(np.shape(x)[:-1] + shape)
    for index, value in entries:
        index = np.index_exp[index]
        out[(Ellipsis, *index) + np.index_exp[:] * (len(shape) - len(index))] = value
    return out


HALTON_BLOCK = 1024  # sample points whose digits halton expands at once


@functools.cache
def halton_constants(base):
    """Per-base constants of halton: digit rows, place values, weights."""
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


_HALTON_DIGITS = {}  # base -> halton_digits of the first points, grown to the largest seen


def halton_digits(base, start, stop):
    """Flat indices place * base + digit of the points start..stop-1 into the digit rows."""
    table = _HALTON_DIGITS.get(base, ())
    if start or stop > len(table):
        powers = halton_constants(base)[1]
        table = np.arange(powers.size) * base + np.arange(start, stop)[:, None] // powers % base
        if start:
            return table
        table.flags.writeable = False  # every later call reads it
        _HALTON_DIGITS[base] = table
    return table[:stop]


def halton(n, seed):
    """n points of the scrambled Halton sequence in [0, 1)^4, bases 2, 3, 5, 7, base by base."""
    rng = np.random.default_rng(seed)
    bases = (2, 3, 5, 7)
    perms = [rng.permuted(halton_constants(base)[0], axis=1) for base in bases]
    out = np.empty((n, 4))
    # the (points, places) digit arrays are read a block at a time, so
    # their size does not grow with n
    for start in range(0, n, HALTON_BLOCK):
        stop = min(start + HALTON_BLOCK, n)
        for col, base in enumerate(bases):
            digits = perms[col].ravel()[halton_digits(base, start, stop)]
            # a left-to-right sum, as SciPy's, so no sample point moves in its last bit
            out[start:stop, col] = np.cumsum(digits * halton_constants(base)[2], axis=1)[:, -1]
    return out


# ---------------------------------------------------------------------------
# the named presets' fields as one-point expressions of their values
# ---------------------------------------------------------------------------


def _unit(shape, *indices):
    """A constant array of the given shape, zero but for ones at the indices."""
    out = np.zeros(shape)
    for index in indices:
        out[index] = 1.0
    return out


_DV, _DY = _unit(4, 0), _unit(4, 3)


def _spherical_bessel_1(z):
    """(j1, y1) at z by their sin/cos closed forms (A&S 10.1.11), for z >= 0.5: there
    j1's cancellation costs at most a digit."""
    sin, cos = np.sin(z), np.cos(z)
    return sin / z**2 - cos / z, -cos / z**2 - sin / z


def _walker_fields(lam, f, k):
    """The fields of the surface preset with profiles f, k and q2 = delta/(lam y)^2 on the
    half-plane: the chart F dv^2 + 2 K dv du + q2 at (v, u, x, y) and the pair u = K dv,
    l = -dK/(2 lam K) = dy/(lam y) of K = c0/y^2."""

    def q2(s):
        return np.eye(2) / (lam * s[1]) ** 2

    def chart(x):
        s = (x[2], x[3])
        return (f(s) * _unit((4, 4), (0, 0)) + k(s) * _unit((4, 4), (0, 1), (1, 0))
                + _unit((4, 4), (2, 2), (3, 3)) / (lam * x[3]) ** 2)

    return {"chart": chart, "F": f, "K": k, "q2": q2,
            "u": lambda x: k((x[2], x[3])) * _DV, "l": lambda x: _DY / (lam * x[3])}


def preset_field_values(name, params):
    """Field name -> the one-point numpy expression of that field's value, for the named preset
    (not walker-generic) with its scored params; surface fields take (x, y), the others
    (v, u, x, y)."""
    if name == "minkowski":
        return {"chart": lambda x: np.diag([1.0, 1.0, 1.0, -1.0]),
                "u": lambda x: _unit(4, 0, 3), "l": lambda x: _unit(4, 1)}
    if name == "heterotic-ppwave":
        amp, omega = params["amp"], params["omega"]
        q0 = np.zeros((4, 4))
        q0[2:, 2:] = params["q0"]
        transverse = q0[:, 2] / np.sqrt(q0[2, 2])

        def phase(v):
            return amp * (1.0 - np.cos(v))

        return {
            "chart": lambda x: _unit((4, 4), (0, 1), (1, 0)) + np.exp(2.0 * phase(x[0])) * q0,
            "u": lambda x: _DV,
            "l": lambda x: np.exp(phase(x[0])) * transverse,
            "varphi": lambda x: (omega[0] + omega[1] * x[0] + omega[2] * x[0] ** 2) * _DV,
        }
    lam = params["lam"]
    if name == "ads4":
        return _walker_fields(lam, lambda s: 1.0 / (lam * s[1]) ** 2,
                              lambda s: 1.0 / (lam * s[1]) ** 2)
    a1, a2, a3, a4 = params["a"]

    def poly(s):
        return (a1 + a2 * s[0]) * (a3 * s[1] + a4 / s[1] ** 2)

    def bessel(s):
        c = params["c"]
        j1, y1 = _spherical_bessel_1(c * s[1])
        return (a1 * np.exp(c * s[0]) + a2 * np.exp(-c * s[0])) * (a3 * y1 + a4 * j1)

    f = {"ads4-deformed-poly": poly, "ads4-deformed-bessel": bessel}[name]
    return _walker_fields(lam, f, lambda s: 0.5 / s[1] ** 2)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def random_spinor(rep, rng):
    from kaspin.clifford_rep import Spinor

    return Spinor(rep, rng.standard_normal(rep.N))


def random_parabolic_pair(rng):
    """Sample a pair by rotating a spacelike frame, with u = e_time + n."""
    from kaspin.ka_core import Multivector
    from kaspin.lowdim import SIG_LORENTZ, ParabolicPair

    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    l_space, n_space = R[:, 0], R[:, 1]
    u = np.append(n_space, 1.0)
    u *= rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-1.0, 1.0))
    c = rng.uniform(-1.0, 1.0)
    l = np.append(l_space, 0.0) + c * u
    return ParabolicPair(
        Multivector.covector(SIG_LORENTZ, u), Multivector.covector(SIG_LORENTZ, l)
    )
