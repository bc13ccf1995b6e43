"""End-to-end acceptance gate: one scored criterion per test.

Each test prints a single verdict line (ACCEPTANCE n: PASS/FAIL) and
then asserts it, so a failing criterion is visible in the run log.
"""

import time

import numpy as np

from kaspin import cli
from kaspin.clifford_rep import Spinor, build_pairings, build_rep, dequantize, quantize
from kaspin.geometry_lab import Field, preset, run_campaign, score
from kaspin.ka_core import (
    Multivector,
    Signature,
    geometric_product,
    hodge_star,
    inner,
    ka_trace,
)
from kaspin.lowdim import (
    SIG_LORENTZ,
    SIG_NEUTRAL,
    check_22_chiral_square,
    pair_to_polyform,
    polyform_to_pair,
)
from kaspin.spinor_square import allowed_grades, reconstruct, square, verify_square_conditions

from helpers import REP_SIGS, closed_field, make_rng, random_multivector
from oracles import random_spinor

PAIRING_TABLE = {1: (1, -1), 2: (-1, -1), 3: (-1, 1), 0: (1, 1)}


def _verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _paired(p, q):
    return build_pairings(build_rep(Signature(p, q)))


def _surface_half_plane(lam):
    """The half-plane metric delta/(lam y)^2 as a Field of surface point stacks (..., 2)."""
    def conformal(s, factor, power):
        return factor * np.eye(2) / (lam**2 * s[..., 1] ** power)[..., None, None]

    def dg(s):
        out = np.zeros(s.shape[:-1] + (2, 2, 2))
        out[..., 1, :, :] = conformal(s, -2.0, 3)
        return out

    def d2g(s):
        out = np.zeros(s.shape[:-1] + (2, 2, 2, 2))
        out[..., 1, 1, :, :] = conformal(s, 6.0, 4)
        return out

    return closed_field(lambda s: conformal(s, 1.0, 2), dg, d2g,
                        in_domain=lambda s: s[..., 1] > 0.0)


def _surface_profile(c0):
    """The profile c0 / y^2 as a Field of surface point stacks (..., 2)."""
    def dk(s):
        out = np.zeros(s.shape)
        out[..., 1] = -2.0 * c0 / s[..., 1] ** 3
        return out

    def d2k(s):
        out = np.zeros(s.shape + (2,))
        out[..., 1, 1] = 6.0 * c0 / s[..., 1] ** 4
        return out

    return closed_field(lambda s: c0 / s[..., 1] ** 2, dk, d2k)


def _exp_cubic(s, order):
    """The jet of e^x y^3 to order at the surface point stack s."""
    e, y = np.exp(s[..., 0]), s[..., 1]
    f, f_y, f_yy = e * y**3, 3.0 * e * y**2, 6.0 * e * y
    grad = np.stack([f, f_y], axis=-1)
    hess = np.stack([grad, np.stack([f_y, f_yy], axis=-1)], axis=-2)
    return (f, grad, hess)[:order + 1]


def _points_over_surface(rng, n, y_lo, y_hi):
    """n chart points (0, 0, x, y) with x uniform in [-1.5, 1.5] and y in [y_lo, y_hi]."""
    pts = np.zeros((n, 4))
    pts[:, 2] = rng.uniform(-1.5, 1.5, size=n)
    pts[:, 3] = rng.uniform(y_lo, y_hi, size=n)
    return pts


def test_acceptance_01_algebra_isomorphism():
    start = time.perf_counter()
    worst_product = 0.0
    worst_trace = 0.0
    for p, q in REP_SIGS:
        sig = Signature(p, q)
        rep = build_rep(sig)
        rng = make_rng(101, stream=16 * p + q)
        for _ in range(200):
            a = random_multivector(sig, rng)
            b = random_multivector(sig, rng)
            ea, eb = quantize(rep, a), quantize(rep, b)
            eab = quantize(rep, geometric_product(a, b))
            worst_product = max(worst_product, float(np.max(np.abs(eab - ea @ eb))))
            worst_trace = max(worst_trace, abs(ka_trace(a) - float(np.trace(ea))))
    elapsed = time.perf_counter() - start
    ok = worst_product <= 1e-9 and worst_trace <= 1e-10 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"product homomorphism and trace over {len(REP_SIGS)} signatures x 200 pairs "
        f"(product {worst_product:.2e}, trace {worst_trace:.2e}, {elapsed:.1f}s)",
    )


def test_acceptance_02_pairing_symmetry_table():
    matches = 0
    for p, q in REP_SIGS:
        pr = _paired(p, q)
        expected = PAIRING_TABLE[((p + q) // 2) % 4]
        matches += (pr.pairing("plus").sigma, pr.pairing("minus").sigma) == expected
    ok = matches == len(REP_SIGS)
    _verdict(2, ok, f"pairing symmetry signs match the half-dimension table {matches}/8")


def test_acceptance_03_squaring_round_trip():
    mismatches = 0
    worst = 0.0
    for p, q in REP_SIGS:
        pr = _paired(p, q)
        rng = make_rng(202, stream=16 * p + q)
        for tag in ("plus", "minus"):
            for _ in range(100):
                xi = random_spinor(pr.rep, rng)
                kappa = int(rng.choice([-1, 1]))
                res = square(pr, tag, kappa, xi)
                rec = reconstruct(pr, tag, res.alpha)
                if rec.kappa != kappa:
                    mismatches += 1
                    continue
                dev = min(
                    float(np.max(np.abs(rec.spinor.components - xi.components))),
                    float(np.max(np.abs(rec.spinor.components + xi.components))),
                )
                worst = max(worst, dev)
    ok = mismatches == 0 and worst <= 1e-8
    _verdict(
        3,
        ok,
        "reconstruct(square(xi)) = +/-xi with matching kappa, 100 spinors per "
        f"signature and pairing (worst {worst:.2e}, kappa mismatches {mismatches})",
    )


def test_acceptance_04_square_variety_membership():
    worst_square = 0.0
    squares_ok = True
    rejected = 0
    nonsquares = 0
    for p, q in REP_SIGS:
        pr = _paired(p, q)
        rng = make_rng(303, stream=16 * p + q)
        for tag in ("plus", "minus"):
            B = pr.pairing(tag).B
            for _ in range(10):
                res = square(pr, tag, int(rng.choice([-1, 1])), random_spinor(pr.rep, rng))
                report = verify_square_conditions(pr, tag, res.alpha, tol=1e-9)
                squares_ok &= report.is_square
                worst_square = max(
                    worst_square, report.residual_symmetry, report.residual_rank_one
                )
            for _ in range(7):
                # rank-two symmetric combination: respects the pairing
                # symmetry but is not the square of any single spinor
                x1 = random_spinor(pr.rep, rng).components
                x2 = random_spinor(pr.rep, rng).components
                E = np.outer(x1, x1 @ B) + np.outer(x2, x2 @ B)
                alpha = dequantize(pr.rep, E)
                nonsquares += 1
                rejected += not verify_square_conditions(pr, tag, alpha, tol=1e-9).is_square
    ok = squares_ok and worst_square <= 1e-9 and rejected == nonsquares and nonsquares >= 100
    _verdict(
        4,
        ok,
        f"squares satisfy the variety conditions (worst {worst_square:.2e}); "
        f"{rejected}/{nonsquares} rank-two impostors rejected",
    )


def test_acceptance_05_degree_filter():
    worst = 0.0
    combos = 0
    for p, q in REP_SIGS:
        d = p + q
        pr = _paired(p, q)
        rng = make_rng(404, stream=16 * p + q)
        for tag in ("plus", "minus"):
            allowed = set(allowed_grades(pr, tag))
            combos += 1
            for _ in range(100):
                alpha = square(pr, tag, int(rng.choice([-1, 1])), random_spinor(pr.rep, rng)).alpha
                for k in range(d + 1):
                    if k not in allowed:
                        worst = max(worst, alpha.grade(k).norm_inf())
    ok = worst <= 1e-12 and combos == 16
    _verdict(
        5,
        ok,
        f"grades outside the pairing filter vanish on 100 squares per combination, "
        f"all k checked (worst {worst:.2e})",
    )


def test_acceptance_06_low_dimensional_normal_forms():
    pr31 = _paired(3, 1)
    rng = make_rng(505, stream=31)
    worst_pair = 0.0
    decomposed = 0
    for _ in range(100):
        alpha = square(pr31, "minus", int(rng.choice([-1, 1])), random_spinor(pr31.rep, rng)).alpha
        try:
            pp = polyform_to_pair(alpha)
        except ValueError:
            continue
        decomposed += 1
        worst_pair = max(
            worst_pair,
            abs(inner(pp.u, pp.u)),
            abs(inner(pp.u, pp.l)),
            abs(inner(pp.l, pp.l) - 1.0),
            (pair_to_polyform(pp) - alpha).norm_inf(),
        )

    pr22 = _paired(2, 2)
    gamma_nu = quantize(pr22.rep, Multivector.volume(SIG_NEUTRAL))
    rng22 = make_rng(505, stream=22)
    chiral_ok = True
    worst_chiral = 0.0
    for _ in range(100):
        xi = random_spinor(pr22.rep, rng22)
        neg = Spinor(pr22.rep, 0.5 * (xi.components - gamma_nu @ xi.components))
        alpha = square(pr22, "plus", 1, neg).alpha
        chiral_ok &= check_22_chiral_square(alpha)
        worst_chiral = max(
            worst_chiral,
            abs(inner(alpha, alpha)),
            (hodge_star(alpha) - alpha).norm_inf(),
        )
    ok = decomposed == 100 and worst_pair <= 1e-9 and chiral_ok and worst_chiral <= 1e-9
    _verdict(
        6,
        ok,
        f"(3,1) squares split into parabolic pairs {decomposed}/100 "
        f"(worst invariant {worst_pair:.2e}); (2,2) chiral squares are "
        f"self-dual and null (worst {worst_chiral:.2e})",
    )


def test_acceptance_07_constant_curvature_preset():
    worst = 0.0
    ok = True
    for lam in (0.5, 1.0, 2.0):
        ps = preset("ads4", {"lam": lam})
        for check in ("einstein", "killing"):
            report = run_campaign(ps, check, n_points=20, seed=11, tol=1e-6)
            ok &= report["verdict"] == "pass"
            worst = max(worst, max(r["max"] for r in report["residuals"].values()))
    ok &= worst <= 1e-6
    _verdict(
        7,
        ok,
        f"ads4 einstein and pair residuals at lam in (0.5, 1, 2), 20 points each "
        f"(worst {worst:.2e})",
    )


def test_acceptance_08_deformed_families_and_sensitivity():
    rng = make_rng(808, stream=8)
    worst_einstein = 0.0
    worst_walker = 0.0

    def record(ps, pts):
        nonlocal worst_einstein, worst_walker
        for x in pts:
            e = score(ps, "einstein", x)
            worst_einstein = max(worst_einstein, e["einstein.f_equation"], e["einstein.ricci_q"])
            worst_walker = max(worst_walker, *score(ps, "walker", x).values())

    for _ in range(3):
        params = {
            "lam": float(rng.uniform(0.5, 1.5)),
            "a": [
                float(rng.uniform(0.5, 1.5)),
                float(rng.uniform(-0.2, 0.2)),
                float(rng.uniform(0.1, 1.0)),
                float(rng.uniform(-0.5, 0.5)),
            ],
        }
        record(preset("ads4-deformed-poly", params), _points_over_surface(rng, 20, 0.1, 5.0))
    for _ in range(3):
        params = {
            "lam": float(rng.uniform(0.5, 1.5)),
            "c": float(rng.uniform(0.5, 2.5)),
            "a": [
                float(rng.uniform(0.2, 1.0)),
                float(rng.uniform(0.2, 1.0)),
                float(rng.uniform(0.3, 1.0)),
                float(rng.uniform(-1.0, 1.0)),
            ],
        }
        record(preset("ads4-deformed-bessel", params), _points_over_surface(rng, 20, 0.1, 5.0))

    # control: a profile solving neither deformation family must pass the
    # eigenfunction equations on K while breaking the F equation
    bad_f = Field(_exp_cubic)
    control = preset(
        "walker-generic",
        {"lam": 1.0, "F": bad_f, "K": _surface_profile(0.5), "q2": _surface_half_plane(1.0)},
    )
    control_walker = 0.0
    control_einstein = 0.0
    for x in _points_over_surface(rng, 20, 0.1, 5.0):
        control_walker = max(control_walker, *score(control, "walker", x).values())
        e = score(control, "einstein", x)
        control_einstein = max(control_einstein, e["einstein.f_equation"])

    ok = (
        worst_einstein <= 1e-5
        and worst_walker <= 1e-6
        and control_walker <= 1e-6
        and control_einstein >= 1e-2
    )
    _verdict(
        8,
        ok,
        f"deformed families: einstein {worst_einstein:.2e}, walker {worst_walker:.2e}; "
        f"control profile passes walker ({control_walker:.2e}) "
        f"but fails einstein ({control_einstein:.2e})",
    )


def test_acceptance_09_profile_eigenfunction_identity():
    rng = make_rng(909, stream=9)
    worst = 0.0
    for _ in range(20):
        lam = float(rng.uniform(0.5, 2.0))
        c0 = float(rng.uniform(0.5, 2.0))
        ps = preset("walker-generic", {
            "lam": lam, "F": lambda s: 0.0, "K": _surface_profile(c0),
            "q2": _surface_half_plane(lam),
        })
        x = _points_over_surface(rng, 1, 0.3, 3.0)[0]
        worst = max(worst, *score(ps, "walker", x).values())
    ok = worst <= 1e-8
    _verdict(
        9,
        ok,
        f"inverse-square profiles satisfy the hessian and laplacian equations "
        f"at 20 random points (worst {worst:.2e})",
    )


def test_acceptance_10_heterotic_ppwave():
    rng = make_rng(1010, stream=10)
    params = {
        "amp": 0.4,
        "q0": [[1.5, 0.2], [0.2, 0.8]],
        "omega": [float(rng.uniform(-1.0, 1.0)) for _ in range(3)],
    }
    ps = preset("heterotic-ppwave", params)
    report = run_campaign(ps, "heterotic", n_points=20, seed=13, tol=1e-6)
    # the square test, the three Kaehler-Atiyah relations and the coclosed
    # flux dual, plus the closed-dilaton hypothesis and the Bianchi identity
    # as separate entries
    names = {
        k for k in report["residuals"]
        if k not in ("heterotic.bianchi", "heterotic.dphi_closed")
    }
    relations = {"square", "gravitino", "dilatino", "gaugino", "rho_coclosed"}
    worst = max(r["max"] for r in report["residuals"].values())
    bianchi = report["residuals"]["heterotic.bianchi"]["max"]
    ok = (report["verdict"] == "pass" and names == {f"heterotic.{n}" for n in relations}
          and worst <= 1e-6)
    _verdict(
        10,
        ok,
        f"plane-wave background passes all {len(names)} supersymmetry residuals "
        f"(worst {worst:.2e}) and the flux Bianchi identity ({bianchi:.2e})",
    )


def test_acceptance_11_cli_determinism(capsys):
    campaigns = [
        ["check-metric", "--preset", "ads4-deformed-poly",
         "--check", "einstein,walker", "--seed", "21", "--trials", "20"],
        ["verify-algebra", "--p", "2", "--q", "2", "--trials", "60", "--seed", "9"],
    ]
    ok = True
    for argv in campaigns:
        code1 = cli.main(argv)
        out1 = capsys.readouterr().out
        code2 = cli.main(argv)
        out2 = capsys.readouterr().out
        ok &= code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    _verdict(11, ok, "repeated CLI campaigns with a fixed seed emit byte-identical JSON")
