"""End-to-end acceptance gate: one scored criterion per test.

Each test prints a single verdict line (ACCEPTANCE n: PASS/FAIL) and
then asserts it, so a failing criterion is visible in the run log.
"""

import math
import time

import numpy as np

from kaspin import cli
from kaspin.clifford_rep import Spinor, build_pairings, build_rep, dequantize, quantize
from kaspin.geometry_lab import (
    MetricChart,
    ScalarField,
    WalkerData,
    einstein_residual,
    preset,
    run_campaign,
    walker_residuals,
)
from kaspin.ka_core import (
    FormMetric,
    Multivector,
    Signature,
    geometric_product,
    hodge_star,
    ka_trace,
)
from kaspin.lowdim import (
    SIG_LORENTZ,
    SIG_NEUTRAL,
    check_22_chiral_square,
    pair_to_polyform,
    polyform_to_pair,
)
from kaspin.rng import make_rng, random_multivector, random_spinor
from kaspin.spinor_square import allowed_grades, reconstruct, square, verify_square_conditions

REP_SIGS = [(2, 0), (1, 1), (3, 1), (2, 2), (4, 2), (3, 3), (4, 4), (5, 3)]
PAIRING_TABLE = {1: (1, -1), 2: (-1, -1), 3: (-1, 1), 0: (1, 1)}


def _verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _paired(p, q):
    return build_pairings(build_rep(Signature(p, q)))


def _surface_half_plane(lam):
    def g(s):
        return np.eye(2) / (lam * s[1]) ** 2

    def dg(s):
        out = np.zeros((2, 2, 2))
        out[1] = -2.0 * np.eye(2) / (lam**2 * s[1] ** 3)
        return out

    def d2g(s):
        out = np.zeros((2, 2, 2, 2))
        out[1, 1] = 6.0 * np.eye(2) / (lam**2 * s[1] ** 4)
        return out

    return MetricChart.closed(g, dg, d2g, in_domain=lambda s: s[1] > 0.0, dim=2)


def _surface_profile(c0):
    return ScalarField(
        value=lambda s: c0 / s[1] ** 2,
        grad=lambda s: np.array([0.0, -2.0 * c0 / s[1] ** 3]),
        hess=lambda s: np.array([[0.0, 0.0], [0.0, 6.0 * c0 / s[1] ** 4]]),
    )


def _surface_points(rng, n, y_lo, y_hi):
    pts = np.empty((n, 2))
    pts[:, 0] = rng.uniform(-1.5, 1.5, size=n)
    pts[:, 1] = rng.uniform(y_lo, y_hi, size=n)
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
        matches += (pr.sigma_plus, pr.sigma_minus) == expected
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
            B = pr.B(tag)
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
            allowed = set(allowed_grades(d, pr.sigma(tag), pr.s(tag)))
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
    h31 = FormMetric.from_signature(SIG_LORENTZ)
    pr31 = _paired(3, 1)
    rng = make_rng(505, stream=31)
    worst_pair = 0.0
    decomposed = 0
    for _ in range(100):
        alpha = square(pr31, "minus", int(rng.choice([-1, 1])), random_spinor(pr31.rep, rng)).alpha
        try:
            pp = polyform_to_pair(alpha, tol=1e-9)
        except ValueError:
            continue
        decomposed += 1
        worst_pair = max(
            worst_pair,
            abs(h31.inner(pp.u, pp.u)),
            abs(h31.inner(pp.u, pp.l)),
            abs(h31.inner(pp.l, pp.l) - 1.0),
            (pair_to_polyform(pp) - alpha).norm_inf(),
        )

    h22 = FormMetric.from_signature(SIG_NEUTRAL)
    pr22 = _paired(2, 2)
    gamma_nu = quantize(pr22.rep, Multivector.volume(SIG_NEUTRAL))
    rng22 = make_rng(505, stream=22)
    chiral_ok = True
    worst_chiral = 0.0
    for _ in range(100):
        xi = random_spinor(pr22.rep, rng22)
        neg = Spinor(pr22.rep, 0.5 * (xi.components - gamma_nu @ xi.components))
        alpha = square(pr22, "plus", 1, neg).alpha
        chiral_ok &= check_22_chiral_square(alpha, tol=1e-9)
        worst_chiral = max(
            worst_chiral,
            abs(h22.inner(alpha, alpha)),
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

    def score(wd, pts):
        nonlocal worst_einstein, worst_walker
        for s in pts:
            e = einstein_residual(wd, s)
            worst_einstein = max(worst_einstein, e.f_equation, e.ricci_q)
            w = walker_residuals(wd, s)
            worst_walker = max(worst_walker, w.hessian, w.laplacian, w.s_v)

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
        score(preset("ads4-deformed-poly", params).walker, _surface_points(rng, 20, 0.1, 5.0))
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
        score(preset("ads4-deformed-bessel", params).walker, _surface_points(rng, 20, 0.1, 5.0))

    # control: a profile solving neither deformation family must pass the
    # eigenfunction equations on K while breaking the F equation
    bad_f = ScalarField(
        value=lambda s: math.exp(s[0]) * s[1] ** 3,
        grad=lambda s: np.array([math.exp(s[0]) * s[1] ** 3, 3.0 * math.exp(s[0]) * s[1] ** 2]),
        hess=lambda s: np.array([
            [math.exp(s[0]) * s[1] ** 3, 3.0 * math.exp(s[0]) * s[1] ** 2],
            [3.0 * math.exp(s[0]) * s[1] ** 2, 6.0 * math.exp(s[0]) * s[1]],
        ]),
    )
    control = preset(
        "walker-generic",
        {"lam": 1.0, "F": bad_f, "K": _surface_profile(0.5), "q2": _surface_half_plane(1.0)},
    ).walker
    control_walker = 0.0
    control_einstein = 0.0
    for s in _surface_points(rng, 20, 0.1, 5.0):
        w = walker_residuals(control, s)
        control_walker = max(control_walker, w.hessian, w.laplacian)
        control_einstein = max(control_einstein, einstein_residual(control, s).f_equation)

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
        wd = WalkerData(
            F=ScalarField(lambda s: 0.0),
            K=_surface_profile(c0),
            q2=_surface_half_plane(lam),
            lam=lam,
        )
        s = _surface_points(rng, 1, 0.3, 3.0)[0]
        res = walker_residuals(wd, s)
        worst = max(worst, res.hessian, res.laplacian)
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
    # ten system relations, plus the closed-dilaton hypothesis and the
    # Bianchi identity as separate entries
    names = {
        k for k in report["residuals"]
        if k not in ("heterotic.bianchi", "heterotic.dphi_closed")
    }
    worst = max(r["max"] for r in report["residuals"].values())
    bianchi = report["residuals"]["heterotic.bianchi"]["max"]
    ok = report["verdict"] == "pass" and len(names) == 10 and worst <= 1e-6
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
