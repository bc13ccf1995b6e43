"""Command line harness for the verification campaigns.

Subcommands mirror the library layers: verify-algebra drives the
product/representation property suites, square / reconstruct /
check-polyform exercise the quadratic map on explicit JSON payloads,
and check-metric runs residual campaigns on the named chart presets.

Reports are emitted as compact JSON on stdout (and to --out when
given); human-readable one-liners go to stderr.  Runs are seeded and
byte-deterministic.  Negative mathematical verdicts are successful
runs and exit 0; usage, parsing, and unsupported-input errors exit 2;
only verify-algebra property failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .clifford_rep import PAIRING_SYMMETRY, Spinor, build_pairings, build_rep, quantize
from .ka_core import Multivector, Signature, geometric_product, ka_trace, multiplier
from .rng import make_rng, random_multivector, random_spinor
from .spinor_square import (
    ReconstructionError,
    reconstruct,
    square,
    verify_square_conditions,
)


class UsageError(Exception):
    """Bad flags or payloads; mapped to exit code 2."""


def _finite(name, values):
    if not np.all(np.isfinite(values)):
        raise UsageError(f"{name} must be finite")
    return values


def _resolve_tol(args, fallback):
    if args.tol is not None:
        tol = args.tol
    else:
        env = os.environ.get("KASPIN_TOL")
        tol = float(env) if env else fallback
    if _finite("tol", tol) <= 0.0:
        raise UsageError("tol must be positive")
    return tol


# upper cap on --trials: each trial is a property trial or a sample point
# whose cost is fixed, so this bounds a run's time and memory
# (a check-metric campaign holds about 1 KB per point while sampling)
MAX_TRIALS = 100_000


def _require_trials(args):
    if not 1 <= args.trials <= MAX_TRIALS:
        raise UsageError(f"trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
    return args.trials


def _emit(report, args):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
    # the file first: an unwritable path is exit 2 with nothing on stdout
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _reject_constant(token):
    raise UsageError(f"non-finite JSON number {token}")


def _finite_float(text):
    return _finite(f"JSON number {text}", float(text))


def _loads(text):
    """Strict JSON: NaN, Infinity and numbers that overflow to them are usage errors."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def _read_payload(args):
    if args.payload is None or args.payload == "-":
        return _loads(sys.stdin.read())
    return _loads(args.payload)


def _payload_pairings(args):
    """The payload, its signature (embedded p/q, else the flags) and the pairings built for it."""
    payload = _read_payload(args)
    if isinstance(payload, dict) and "p" in payload and "q" in payload:
        p, q = payload["p"], payload["q"]
        # JSON integers only: int() would truncate 3.9 and take true or "3"
        if type(p) is not int or type(q) is not int:
            raise UsageError(f"payload p and q must be JSON integers, got {p!r} and {q!r}")
        sig = Signature(p, q)
        if args.p is not None and (args.p, args.q) != (sig.p, sig.q):
            raise UsageError(
                f"flags give signature ({args.p},{args.q}) "
                f"but the payload carries ({sig.p},{sig.q})"
            )
    elif args.p is None or args.q is None:
        raise UsageError("signature required: pass --p and --q or embed p/q in the payload")
    else:
        sig = Signature(args.p, args.q)
    if not sig.supports_rep():
        raise UsageError(f"signature ({sig.p},{sig.q}) has no real irreducible matrix model")
    return payload, sig, build_pairings(build_rep(sig))


# ---------------------------------------------------------------------------
# verify-algebra
# ---------------------------------------------------------------------------


def _symmetry_sign(B):
    """+1 if B.T == B, -1 if B.T == -B, else 0."""
    if np.array_equal(B.T, B):
        return 1
    return -1 if np.array_equal(B.T, -B) else 0


def _cmd_verify_algebra(args):
    sig = Signature(args.p, args.q)
    if not sig.supports_rep():
        raise UsageError(
            f"signature ({sig.p},{sig.q}) has no real irreducible matrix model; "
            "need d even and p - q in {0, 2}"
        )
    trials = _require_trials(args)
    tol = _resolve_tol(args, 1e-9)
    rep = build_rep(sig)
    pr = build_pairings(rep)
    rng = make_rng(args.seed, stream=7)

    assoc = 0.0
    iso = 0.0
    trace_err = 0.0
    for _ in range(trials):
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        c = random_multivector(sig, rng)
        left = geometric_product(geometric_product(a, b), c)
        right = geometric_product(a, geometric_product(b, c))
        assoc = max(assoc, (left - right).norm_inf())
        ea, eb = quantize(rep, a), quantize(rep, b)
        eab = quantize(rep, geometric_product(a, b))
        iso = max(iso, float(np.max(np.abs(eab - ea @ eb))))
        trace_err = max(trace_err, abs(ka_trace(a) - float(np.trace(ea))))

    # e_i <> e_j + e_j <> e_i = 2 g_ij for every j at once, multiplying
    # the stacked one-forms e_j by e_i on either side
    metric = sig.blade_signs()
    one_forms = np.eye(sig.n_blades)[1 << np.arange(sig.d)]
    cliff = 0.0
    for i in range(sig.d):
        by_ei = multiplier(Multivector.basis(sig, (i + 1,)))
        anti = by_ei.left(one_forms) + by_ei.right(one_forms)
        anti[i, 0] -= 2.0 * metric[1 << i]
        cliff = max(cliff, float(np.max(np.abs(anti))))

    expected = PAIRING_SYMMETRY[(sig.d // 2) % 4]
    computed = tuple(_symmetry_sign(B) for B in (pr.Bplus, pr.Bminus))
    checks = {
        "associativity": {"max": assoc, "pass": assoc <= tol},
        "clifford_relation": {"max": cliff, "pass": cliff <= tol},
        "isomorphism": {"max": iso, "pass": iso <= tol},
        "trace": {"max": trace_err, "pass": trace_err <= tol},
        "pairing_table": {
            "expected": list(expected),
            "computed": list(computed),
            "pass": computed == expected,
        },
    }
    verdict = "pass" if all(c["pass"] for c in checks.values()) else "fail"
    report = {
        "command": "verify-algebra",
        "signature": [sig.p, sig.q],
        "trials": trials,
        "seed": args.seed,
        "tol": tol,
        "checks": checks,
        "verdict": verdict,
    }
    _emit(report, args)
    worst = max(assoc, cliff, iso, trace_err)
    print(
        f"verify-algebra ({sig.p},{sig.q}): {verdict} "
        f"(worst residual {worst:.3e}, pairing signs {computed})",
        file=sys.stderr,
    )
    return 0 if verdict == "pass" else 1


# ---------------------------------------------------------------------------
# square / reconstruct / check-polyform
# ---------------------------------------------------------------------------


def _spinor_components(payload):
    if isinstance(payload, dict):
        payload = payload.get("components")
    if not isinstance(payload, list):
        raise UsageError("spinor payload must be a component list or carry 'components'")
    return _finite("spinor components", np.asarray([float(v) for v in payload]))


def _polyform(payload):
    alpha = Multivector.from_json(payload)
    _finite("polyform coefficients", alpha.coeffs)
    return alpha


def _cmd_square(args):
    payload, sig, pr = _payload_pairings(args)
    xi = Spinor(pr.rep, _spinor_components(payload))
    result = square(pr, args.pairing, args.kappa, xi)
    report = {
        "command": "square",
        "signature": [sig.p, sig.q],
        "pairing": result.pairing_tag,
        "kappa": result.kappa,
        "s": result.s,
        "sigma": result.sigma,
        "alpha": json.loads(result.alpha.to_json()),
    }
    _emit(report, args)
    grades = sorted(result.alpha.grades())
    print(
        f"square ({sig.p},{sig.q})/{args.pairing}: grades {grades}",
        file=sys.stderr,
    )
    return 0


def _cmd_reconstruct(args):
    payload, sig, pr = _payload_pairings(args)
    alpha = _polyform(payload)
    tol = _resolve_tol(args, 1e-8)
    report = {
        "command": "reconstruct",
        "signature": [sig.p, sig.q],
        "pairing": args.pairing,
        "tol": tol,
    }
    try:
        result = reconstruct(pr, args.pairing, alpha, tol=tol)
    except ReconstructionError as exc:
        report["reconstructible"] = False
        report["reason"] = str(exc)
        _emit(report, args)
        print(f"reconstruct ({sig.p},{sig.q})/{args.pairing}: not a square", file=sys.stderr)
        return 0
    report["reconstructible"] = True
    report["spinor"] = [float(v) for v in result.spinor.components]
    report["kappa"] = result.kappa
    report["residual"] = result.residual
    _emit(report, args)
    print(
        f"reconstruct ({sig.p},{sig.q})/{args.pairing}: "
        f"kappa={result.kappa} residual={result.residual:.3e}",
        file=sys.stderr,
    )
    return 0


def _cmd_check_polyform(args):
    payload, sig, pr = _payload_pairings(args)
    alpha = _polyform(payload)
    tol = _resolve_tol(args, 1e-8)
    conditions = verify_square_conditions(pr, args.pairing, alpha, tol=tol)
    report = {
        "command": "check-polyform",
        "signature": [sig.p, sig.q],
        "pairing": args.pairing,
        "is_square": conditions.is_square,
        "residual_symmetry": conditions.residual_symmetry,
        "residual_rank_one": conditions.residual_rank_one,
        "tol": conditions.tol,
    }
    _emit(report, args)
    print(
        f"check-polyform ({sig.p},{sig.q})/{args.pairing}: "
        f"is_square={str(conditions.is_square).lower()}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# check-metric
# ---------------------------------------------------------------------------


def _comma_floats(text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _cmd_check_metric(args):
    from .geometry_lab import preset, run_campaign

    params = {}
    if args.params:
        parsed = _loads(args.params)
        if not isinstance(parsed, dict):
            raise UsageError("--params must be a JSON object")
        params.update(parsed)
    if args.lam is not None:
        params["lam"] = args.lam
    if args.a is not None:
        params["a"] = list(args.a)
    if args.c is not None:
        params["c"] = args.c
    checks = [part.strip() for part in args.check.split(",") if part.strip()]
    if not checks:
        raise UsageError("--check must name at least one residual family")
    tol = _resolve_tol(args, 1e-6)
    n_points = _require_trials(args)
    ps = preset(args.preset, params)
    reports = []
    for check in checks:
        report = run_campaign(
            ps, check, n_points=n_points, seed=args.seed, tol=tol, perturb=args.perturb
        )
        reports.append(report)
        worst = max((r["max"] for r in report["residuals"].values()), default=0.0)
        print(
            f"check-metric {ps.name} [{check}]: {report['verdict']} (worst {worst:.3e})",
            file=sys.stderr,
        )
    _emit(reports[0] if len(reports) == 1 else reports, args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kaspin",
        description="seeded verification campaigns for the kaspin package",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads, so a flag it would
    # ignore is a usage error
    def out_flag(p):
        p.add_argument("--out", default=None, help="also write the JSON report to this path")

    def tol_flag(p):
        p.add_argument("--tol", type=float, default=None,
                       help="residual tolerance (default from KASPIN_TOL, else per-command)")

    def trial_flags(p, trials_default):
        p.add_argument("--trials", type=int, default=trials_default,
                       help=f"number of trials or sample points (1..{MAX_TRIALS})")
        p.add_argument("--seed", type=int, default=0)

    va = sub.add_parser("verify-algebra", help="product and representation property suite")
    va.add_argument("--p", type=int, required=True)
    va.add_argument("--q", type=int, required=True)
    trial_flags(va, 100)
    tol_flag(va)
    out_flag(va)
    va.set_defaults(func=_cmd_verify_algebra)

    def payload_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("payload", nargs="?", default=None,
                       help="JSON payload ('-' or omitted reads stdin)")
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--pairing", choices=("plus", "minus"), default="minus")
        out_flag(p)
        return p

    sq = payload_command("square", "polyform square of a spinor")
    sq.add_argument("--kappa", type=int, choices=(1, -1), default=1)
    sq.set_defaults(func=_cmd_square)

    rc = payload_command("reconstruct", "recover a spinor from its polyform square")
    tol_flag(rc)
    rc.set_defaults(func=_cmd_reconstruct)

    cp = payload_command("check-polyform", "test the square variety conditions")
    tol_flag(cp)
    cp.set_defaults(func=_cmd_check_polyform)

    cm = sub.add_parser("check-metric", help="residual campaign on a chart preset")
    cm.add_argument("--preset", required=True)
    cm.add_argument("--params", default=None, help="JSON object of preset parameters")
    cm.add_argument("--lambda", dest="lam", type=float, default=None)
    cm.add_argument("--a", type=_comma_floats, default=None)
    cm.add_argument("--c", type=float, default=None)
    cm.add_argument("--check", default="einstein",
                    help="comma list: killing,einstein,walker,heterotic,bianchi")
    cm.add_argument("--perturb", type=float, default=0.0)
    trial_flags(cm, 20)
    tol_flag(cm)
    out_flag(cm)
    cm.set_defaults(func=_cmd_check_metric)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, OverflowError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
