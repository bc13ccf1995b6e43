"""Slow reference implementations used only by the tests.

The algebra references work on explicit index lists with bubble-sort
swap counting, so they share no code path (and hopefully no bugs) with
the bitmask tables inside the package. Expected values frozen into the
test files were produced by these functions. The square-variety
references test the sandwich identity, on seeded probes as
verify_square_conditions did before its rank-one fit, and on every
basis blade. The campaign reference scores one sample point at a time,
as run_campaign did before it stacked its points.
"""

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

    return (s_transpose(pr, pr.s(pairing_tag), ahat) - pr.sigma(pairing_tag) * ahat).norm_inf()


def slow_verify_square_conditions(pr, pairing_tag, alpha, n_probes=10, seed=0, tol=1e-9):
    """The square verdict by the sandwich identity on probes, one product pair each.

    Tests the s-transpose symmetry, alpha <> alpha = S(alpha) alpha, and
    alpha <> beta <> alpha = S(alpha <> beta) alpha for the probes 1, nu,
    the basis one-forms, n_probes seeded random polyforms and the
    monomial at alpha's largest coefficient, on alpha at unit max-norm.
    """
    from kaspin.ka_core import Multivector, geometric_product, ka_trace
    from kaspin.rng import make_rng, random_multivector

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
    once, as rows of the identity multiplied by alpha's Multiplier.
    """
    from kaspin.ka_core import multiplier

    sig = pr.rep.sig
    scale = alpha.norm_inf()
    if scale == 0.0:
        return ProbeVerdict(True, 0.0, 0.0, 0.0, True)
    ahat = alpha * (1.0 / scale)
    by_alpha = multiplier(ahat)
    ab = by_alpha.left(np.eye(sig.n_blades))
    traces = 2.0 ** (sig.d // 2) * ab[:, 0]
    residuals = np.max(np.abs(by_alpha.right(ab) - np.outer(traces, ahat.coeffs)), axis=1)
    r_sym = _symmetry_residual(pr, pairing_tag, ahat)
    witness = bool(np.any(np.abs(traces) > tol))
    ok = witness and max(r_sym, float(np.max(residuals))) <= tol
    return ProbeVerdict(ok, r_sym, float(residuals[0]), float(np.max(residuals)), witness)


def slow_point_residuals(ps, check, x):
    """The residuals of one campaign check at the single point x, name -> float.

    The body of run_campaign's former per-point loop, verbatim but for
    returning its records.
    """
    from kaspin.geometry_lab import (
        _parabolic_violation,
        einstein_residual,
        heterotic_susy_residuals,
        killing_pair_residual,
        modified_bianchi_residual,
        ricci,
        walker_residuals,
    )

    values = {}

    def record(name, value):
        values[name] = float(value)

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
    return values


def slow_run_campaign(ps, check, n_points=20, seed=0, tol=1e-6, perturb=0.0):
    """geometry_lab.run_campaign as one point at a time, without worst points."""
    from kaspin.geometry_lab import _CHECKS, _finite, _halton, _perturbed

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
