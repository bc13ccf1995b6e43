"""Command line harness for the verification campaigns.

Subcommands mirror the library layers: verify-algebra checks the
product and representation exactly on generator identities, square /
reconstruct / check-polyform exercise the quadratic map on explicit
JSON payloads, and check-metric runs seeded residual campaigns on the
named chart presets (the only sampling a run does).

Each subcommand returns its report, a one-line summary per verdict and
its exit code, and writes nothing: `main` alone writes the report as
compact JSON to --out when given and to stdout, then the summary lines
to stderr.  Runs are byte-deterministic.  Negative mathematical verdicts
are successful runs and exit 0; only verify-algebra property failures
exit 1; bad input of any kind, argparse's usage errors included, exits 2
with empty stdout and one `error:` line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import _kernels
from .clifford_rep import PAIRING_SYMMETRY, Spinor, build_pairings, build_rep
from .ka_core import Multivector, Signature, json_number
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


def _require_tol(args):
    if _finite("tol", args.tol) <= 0.0:
        raise UsageError("tol must be positive")
    return args.tol


# upper cap on --trials: each trial is a check-metric sample point whose
# cost is fixed, so this bounds a run's time and memory (a campaign holds
# about 1 KB per point while sampling); verify-algebra only range-checks it
MAX_TRIALS = 100_000


def _require_trials(args):
    if not 1 <= args.trials <= MAX_TRIALS:
        raise UsageError(f"trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
    return args.trials


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
        sig = Signature(payload["p"], payload["q"])
        if args.p is not None and (args.p, args.q) != (sig.p, sig.q):
            raise UsageError(
                f"flags give signature ({args.p},{args.q}) "
                f"but the payload carries ({sig.p},{sig.q})"
            )
    elif args.p is None or args.q is None:
        raise UsageError("signature required: pass --p and --q or embed p/q in the payload")
    else:
        sig = Signature(args.p, args.q)
    return payload, sig, build_pairings(build_rep(sig))


# ---------------------------------------------------------------------------
# verify-algebra
# ---------------------------------------------------------------------------


def _symmetry_sign(B):
    """+1 if B.T == B, -1 if B.T == -B, else 0."""
    if np.array_equal(B.T, B):
        return 1
    return -1 if np.array_equal(B.T, -B) else 0


def _generator_residuals(sig, rep):
    """(associativity, isomorphism, trace) residuals, one generator e_i at a time.

    With sigma(J, K) = sign[J, J^K] the sign of e_J e_K, for all blades J, K:
    sigma(i,J) sigma(i^J,K) = sigma(J,K) sigma(i,J^K), sigma(low(J), J - low(J)) = 1,
    Gamma_i Gamma_J = sigma(i,J) Gamma_{i^J} and tr Gamma_J = N delta_J0 (README).
    Every term is a sign or a sum of signs: each residual is 0.0 or at least 1.0.
    """
    t = sig.tables()
    masks = np.arange(sig.n_blades)
    # the product signs are +-1, exact in int8, which keeps the n x n temporaries small
    sigma = np.take_along_axis(t.sign, t.xor, axis=1).astype(np.int8)
    blades = rep.blade_table.reshape(-1, rep.N, rep.N)
    # e_J = e_low(J) e_{J minus low(J)} has the sign sign[low(J), J]
    low = masks[1:] & -masks[1:]
    assoc = float(np.max(np.abs(t.sign[low, masks[1:]] - 1.0)))
    iso = 0.0
    for i in 1 << np.arange(sig.d):
        left = sigma[i][:, None] * sigma[i ^ masks]
        right = sigma * sigma[i][t.xor]
        assoc = max(assoc, float(np.max(np.abs(left - right))))
        moved = blades[i] @ blades
        moved -= t.sign[i, i ^ masks][:, None, None] * blades[i ^ masks]  # float sigma(i, J)
        iso = max(iso, float(np.max(np.abs(moved))))
    traces = np.trace(blades, axis1=1, axis2=2)
    traces[0] -= rep.N
    return assoc, iso, float(np.max(np.abs(traces)))


def _split_residual(sig):
    """max |sign - s_lo s_hi (-1)^(|I_hi| |J_lo|)| over both tables, from the split kernel.

    The kernel runs on every basis blade e_I against b[J] = J + 1, so each
    output is exact and names the coefficient it gathered: out[I, K] is
    sign[I, K] (I^K + 1) exactly when the split plan agrees with the table.
    """
    t = sig.tables()
    n = sig.n_blades
    coded = np.arange(1.0, n + 1)
    blades = np.eye(n)
    worst = 0.0
    for table in ("sign", "wedge_sign"):
        plan = _kernels.split_plan(sig.p, sig.q, table)
        # sixteen left blades per call keep the stacked temporaries small
        for first in range(0, n, 16):
            rows = slice(first, first + 16)
            got = _kernels.split_product(blades[rows], coded, plan) / (t.xor[rows] + 1)
            worst = max(worst, float(np.max(np.abs(got - getattr(t, table)[rows]))))
    return worst


def _cmd_verify_algebra(args):
    sig = Signature(args.p, args.q)
    rep = build_rep(sig)
    # the checks are exact: --trials and --seed are range-checked, never read
    _require_trials(args)
    if not 0 <= args.seed < 2**64:
        raise UsageError(f"seed must be between 0 and 2^64 - 1, got {args.seed}")
    pr = build_pairings(rep)
    assoc, iso, trace_err = _generator_residuals(sig, rep)

    # e_i <> e_j + e_j <> e_i = 2 g_ij: one stacked product per i gives
    # e_j <> e_i for every j, and the transpose adds e_i <> e_j
    t = sig.tables()
    ones = 1 << np.arange(sig.d)
    one_forms = np.eye(sig.n_blades)[ones]
    by_e = np.stack([_kernels.multiply(one_forms, e, sig.p, sig.q, "sign") for e in one_forms])
    anti = by_e + by_e.transpose(1, 0, 2)
    anti[range(sig.d), range(sig.d), 0] -= 2.0 * t.metric[ones]
    cliff = float(np.max(np.abs(anti)))
    split = _split_residual(sig)

    expected = PAIRING_SYMMETRY[(sig.d // 2) % 4]
    computed = tuple(_symmetry_sign(pr.pairing(tag).B) for tag in ("plus", "minus"))
    checks = {
        "associativity": {"max": assoc, "pass": assoc == 0.0},
        "clifford_relation": {"max": cliff, "pass": cliff == 0.0},
        "isomorphism": {"max": iso, "pass": iso == 0.0},
        "trace": {"max": trace_err, "pass": trace_err == 0.0},
        "pairing_table": {
            "expected": list(expected),
            "computed": list(computed),
            "pass": computed == expected,
        },
        "split_factorization": {"max": split, "pass": split == 0.0},
    }
    verdict = "pass" if all(c["pass"] for c in checks.values()) else "fail"
    report = {
        "command": "verify-algebra",
        # the kernel every geometric product and wedge takes at this signature
        "product_kernel": _kernels.kernel_name(sig.d),
        "signature": [sig.p, sig.q],
        "checks": checks,
        "verdict": verdict,
    }
    worst = max(assoc, cliff, iso, trace_err, split)
    summary = (f"verify-algebra ({sig.p},{sig.q}): {verdict} "
               f"(worst residual {worst:.3e}, pairing signs {computed})")
    return report, summary, 0 if verdict == "pass" else 1


# ---------------------------------------------------------------------------
# square / reconstruct / check-polyform
# ---------------------------------------------------------------------------


def _spinor_components(payload):
    if isinstance(payload, dict):
        payload = payload.get("components")
    if not isinstance(payload, list):
        raise UsageError("spinor payload must be a component list or carry 'components'")
    return _finite("spinor components",
                   np.asarray([json_number("spinor component", v) for v in payload]))


def _polyform(payload, sig):
    """The polyform of a {"coeffs": {key: number}} payload, at the resolved signature."""
    if not isinstance(payload, dict):
        raise UsageError("polyform payload must be a JSON object")
    alpha = Multivector.from_json({**payload, "p": sig.p, "q": sig.q})
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
    grades = sorted(result.alpha.grades())
    return report, f"square ({sig.p},{sig.q})/{args.pairing}: grades {grades}", 0


def _cmd_reconstruct(args):
    payload, sig, pr = _payload_pairings(args)
    alpha = _polyform(payload, sig)
    tol = _require_tol(args)
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
        return report, f"reconstruct ({sig.p},{sig.q})/{args.pairing}: not a square", 0
    report["reconstructible"] = True
    report["spinor"] = [float(v) for v in result.spinor.components]
    report["kappa"] = result.kappa
    report["residual"] = result.residual
    summary = (f"reconstruct ({sig.p},{sig.q})/{args.pairing}: "
               f"kappa={result.kappa} residual={result.residual:.3e}")
    return report, summary, 0


def _cmd_check_polyform(args):
    payload, sig, pr = _payload_pairings(args)
    alpha = _polyform(payload, sig)
    conditions = verify_square_conditions(pr, args.pairing, alpha, tol=_require_tol(args))
    report = {
        "command": "check-polyform",
        "signature": [sig.p, sig.q],
        "pairing": args.pairing,
        "is_square": conditions.is_square,
        "residual_symmetry": conditions.residual_symmetry,
        "residual_rank_one": conditions.residual_rank_one,
        "tol": conditions.tol,
    }
    summary = (f"check-polyform ({sig.p},{sig.q})/{args.pairing}: "
               f"is_square={str(conditions.is_square).lower()}")
    return report, summary, 0


# ---------------------------------------------------------------------------
# check-metric
# ---------------------------------------------------------------------------


def _comma_floats(text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _cmd_check_metric(args):
    from .geometry_lab import preset, require_check, run_campaign

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
    # the reports carry no check name, so a repeated check would print two identical reports
    repeated = sorted({check for check in checks if checks.count(check) > 1})
    if repeated:
        raise UsageError(f"--check names {', '.join(repeated)} more than once")
    tol = _require_tol(args)
    n_points = _require_trials(args)
    ps = preset(args.preset, params)
    # every check is tested against the preset's data before any campaign runs
    for check in checks:
        require_check(ps, check)
    reports, lines = [], []
    for check in checks:
        report = run_campaign(
            ps, check, n_points=n_points, seed=args.seed, tol=tol, perturb=args.perturb
        )
        reports.append(report)
        worst = max((r["max"] for r in report["residuals"].values()), default=0.0)
        lines.append(f"check-metric {ps.name} [{check}]: {report['verdict']} (worst {worst:.3e})")
    return reports[0] if len(reports) == 1 else reports, "\n".join(lines), 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors reach main's one `except` as a UsageError."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser():
    # the subparsers take this class too
    parser = _Parser(
        prog="kaspin",
        description="seeded verification campaigns for the kaspin package",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads, so a flag it would
    # ignore is a usage error; verify-algebra's --trials and --seed, kept
    # for existing callers, are the one exception and are still range-checked
    def out_flag(p):
        p.add_argument("--out", default=None, help="also write the JSON report to this path")

    def tol_flag(p, default):
        p.add_argument("--tol", type=float, default=default,
                       help="residual tolerance (default %(default)s)")

    va = sub.add_parser("verify-algebra", help="product and representation property suite")
    va.add_argument("--p", type=int, required=True)
    va.add_argument("--q", type=int, required=True)
    va.add_argument("--trials", type=int, default=100, help=f"ignored (1..{MAX_TRIALS})")
    va.add_argument("--seed", type=int, default=0, help="ignored (0..2^64 - 1)")
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
    tol_flag(rc, 1e-8)
    rc.set_defaults(func=_cmd_reconstruct)

    cp = payload_command("check-polyform", "test the square variety conditions")
    tol_flag(cp, 1e-8)
    cp.set_defaults(func=_cmd_check_polyform)

    cm = sub.add_parser("check-metric", help="residual campaign on a chart preset")
    cm.add_argument("--preset", required=True)
    cm.add_argument("--params", default=None, help="JSON object of preset parameters")
    cm.add_argument("--lambda", dest="lam", type=float, default=None)
    cm.add_argument("--a", type=_comma_floats, default=None)
    cm.add_argument("--c", type=float, default=None)
    cm.add_argument("--check", default="einstein",
                    help="comma list: killing,einstein,walker,heterotic,bianchi")
    cm.add_argument("--perturb", type=float, default=0.0,
                    help="detection control: add AMOUNT to K on surface presets, "
                         "else rescale the metric by 1 + AMOUNT")
    cm.add_argument("--trials", type=int, default=20,
                    help=f"number of sample points (1..{MAX_TRIALS})")
    cm.add_argument("--seed", type=int, default=0)
    tol_flag(cm, 1e-6)
    out_flag(cm)
    cm.set_defaults(func=_cmd_check_metric)

    return parser


def main(argv=None):
    """Run one command and return its exit code: 0, 1 (a failed verify-algebra) or 2.

    The one writer of a run: the report goes to --out first, so an unwritable
    path leaves stdout empty, then to stdout, flushed, so a stdout that cannot
    take it is an error here; the summary lines follow on stderr. Every input
    error, argparse's included, is one `error:` line and exit 2. `--help`
    prints usage and raises SystemExit(0), as argparse does.
    """
    try:
        args = _build_parser().parse_args(argv)
        report, summary, code = args.func(args)
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        print(text, flush=True)
    except (UsageError, ValueError, KeyError, OSError, OverflowError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary, file=sys.stderr)
    return code


def run():
    """The process entry of `kaspin` and `python -m kaspin.cli`: main(), then exit.

    main has written and flushed the report, so once stderr is flushed the
    verdict is delivered, and the process leaves through os._exit, which skips
    finalising numpy and every module (about 28 ms of a cold run).
    """
    code = main()
    with contextlib.suppress(OSError, ValueError, AttributeError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
