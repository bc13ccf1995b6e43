"""Command line interface: reports, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaspin
from kaspin import _kernels, cli
from kaspin.clifford_rep import PairedRep

from helpers import REP_SIGS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_algebra_report_and_determinism(capsys):
    code, out, err = run_cli(
        capsys, "verify-algebra", "--p", "3", "--q", "1", "--trials", "50", "--seed", "42"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["signature"] == [3, 1]
    assert report["checks"]["pairing_table"]["computed"] == [-1, -1]
    for name in ("associativity", "clifford_relation", "isomorphism", "trace"):
        assert report["checks"][name]["pass"]
    assert "verify-algebra" in err
    code2, out2, _ = run_cli(
        capsys, "verify-algebra", "--p", "3", "--q", "1", "--trials", "50", "--seed", "42"
    )
    assert code2 == 0
    assert out2 == out


def test_verify_algebra_covers_all_supported_signatures(capsys):
    for p, q in REP_SIGS:
        code, out, _ = run_cli(
            capsys, "verify-algebra", "--p", str(p), "--q", str(q), "--trials", "10"
        )
        assert code == 0, (p, q)
        report = json.loads(out)
        assert report["verdict"] == "pass"
        # every identity is checked on exact signs, so each residual is exactly 0
        for name in ("associativity", "clifford_relation", "isomorphism", "trace"):
            assert report["checks"][name]["max"] == 0.0, (p, q, name)


def test_verify_algebra_output_does_not_depend_on_trials_or_seed(capsys):
    outputs = {
        run_cli(capsys, "verify-algebra", "--p", "4", "--q", "4", *flags)[1]
        for flags in ((), ("--trials", "2", "--seed", "7"), ("--trials", "500", "--seed", "0"),
                      ("--seed", str(2**64 - 1)))
    }
    assert len(outputs) == 1
    report = json.loads(outputs.pop())
    assert not {"trials", "seed", "tol"} & set(report)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_algebra_seed_out_of_range_exits_two(capsys, seed):
    assert_usage_error(*run_cli(capsys, "verify-algebra", "--p", "3", "--q", "1", "--seed", seed))


def test_verify_algebra_planted_sign_flip_fails_associativity(capsys, monkeypatch):
    # e_12 e_23 = e_13 at (3,1); flipping that one sign breaks associativity
    # alone: the flipped row is not a generator's, so the Clifford relation
    # and Gamma_i Gamma_J still hold
    real_get_tables = _kernels.get_tables

    def flipped(p, q):
        t = real_get_tables(p, q)
        sign = t.sign.copy()
        sign[0b0011, 0b0101] *= -1.0
        return t._replace(sign=sign)

    monkeypatch.setattr(_kernels, "get_tables", flipped)
    code, out, _ = run_cli(capsys, "verify-algebra", "--p", "3", "--q", "1")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["checks"]["associativity"] == {"max": 2.0, "pass": False}
    for name in ("clifford_relation", "isomorphism", "trace", "pairing_table"):
        assert report["checks"][name]["pass"], name
    # --tol 2 once loosened the exact checks until this flip printed "pass" and exited 0
    code, out, err = run_cli(capsys, "verify-algebra", "--p", "3", "--q", "1", "--tol", "2")
    assert (code, out) == (2, "") and "unrecognized arguments: --tol 2" in err


def test_verify_algebra_checks_the_split_plan_and_names_the_kernel(capsys):
    for p, q in REP_SIGS:
        report = json.loads(run_cli(capsys, "verify-algebra", "--p", str(p), "--q", str(q))[1])
        assert report["checks"]["split_factorization"] == {"max": 0.0, "pass": True}, (p, q)
        assert report["product_kernel"] == ("split" if p + q >= 7 else "flat"), (p, q)


def test_verify_algebra_planted_split_plan_flip_fails(capsys, monkeypatch):
    # one flipped high-factor sign leaves the flat table, and so every other
    # check, intact; only the split kernel that single (4,4) products take is wrong
    real_split_plan = _kernels.split_plan

    def flipped(p, q, table):
        plan = real_split_plan(p, q, table)
        outer = plan.outer.copy()
        outer[3, 5, 6] *= -1.0
        return plan._replace(outer=outer)

    monkeypatch.setattr(_kernels, "split_plan", flipped)
    code, out, _ = run_cli(capsys, "verify-algebra", "--p", "4", "--q", "4")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["checks"]["split_factorization"] == {"max": 2.0, "pass": False}
    for name in ("associativity", "clifford_relation", "isomorphism", "trace", "pairing_table"):
        assert report["checks"][name]["pass"], name


def test_verify_algebra_unsupported_signature_exits_two(capsys):
    # build_rep raises the ValueError, which main maps to exit 2; square too.  (8,0), (0,6),
    # (1,7) and (0,8) are of real type (p - q = 0 or 2 mod 8) but not built; the others are not
    # of real type at all
    want = {
        (3, 0): "signature (3,0) is not of real type: (p - q) mod 8 = 3, not 0 or 2",
        (5, 0): "signature (5,0) is not of real type: (p - q) mod 8 = 5, not 0 or 2",
        (1, 3): "signature (1,3) is not of real type: (p - q) mod 8 = 6, not 0 or 2",
        **{(p, q): f"signature ({p},{q}) is of real type, but only p - q in {{0, 2}} is built"
           for p, q in [(8, 0), (0, 6), (1, 7), (0, 8)]},
    }
    for (p, q), message in want.items():
        for argv in (("verify-algebra",), ("square", "[1,0]")):
            code, out, err = run_cli(capsys, *argv, "--p", str(p), "--q", str(q))
            assert code == 2, (argv, p, q)
            assert out == ""
            assert err == f"error: {message}\n", (argv, p, q)


def test_verify_algebra_failed_property_exits_one(capsys, monkeypatch):
    # a Bplus cut to its upper triangle is neither symmetric nor
    # antisymmetric, so the measured pairing signs must fail the table
    real_build_pairings = cli.build_pairings

    def broken_pairings(rep):
        pr = real_build_pairings(rep)
        plus, minus = pr.pairing("plus"), pr.pairing("minus")
        return PairedRep(pr.rep, np.triu(plus.B), minus.B, plus.sigma, minus.sigma)

    monkeypatch.setattr(cli, "build_pairings", broken_pairings)
    code, out, _ = run_cli(capsys, "verify-algebra", "--p", "3", "--q", "1", "--trials", "5")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert not report["checks"]["pairing_table"]["pass"]
    assert report["checks"]["pairing_table"]["computed"] == [0, -1]


def test_verify_algebra_clifford_relation_detects_a_wrong_left_action(capsys, monkeypatch):
    # with the wedge standing in for the product, e_i acts without its
    # contraction, so e_i e_j + e_j e_i is 0 where it should be 2 g_ij
    real_product = _kernels.product

    def wedge_only(a, b, sign, xor):
        masks = np.arange(len(b))
        return real_product(a, b, np.where(masks[:, None] & xor, 0.0, sign), xor)

    monkeypatch.setattr(_kernels, "product", wedge_only)
    code, out, _ = run_cli(capsys, "verify-algebra", "--p", "3", "--q", "1", "--trials", "2")
    assert code == 1
    report = json.loads(out)
    assert not report["checks"]["clifford_relation"]["pass"]
    assert report["checks"]["clifford_relation"]["max"] == 2.0


def test_square_grades_and_reconstruct_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "square", "[1,0,0,0]", "--p", "3", "--q", "1")
    assert code == 0
    report = json.loads(out)
    assert report["pairing"] == "minus"
    assert report["kappa"] == 1
    grades = {
        key.count(",") + 1
        for key, value in report["alpha"]["coeffs"].items()
        if key and abs(value) > 0.0
    }
    assert grades <= {1, 2}

    code, out, _ = run_cli(capsys, "reconstruct", json.dumps(report["alpha"]))
    assert code == 0
    rec = json.loads(out)
    assert rec["reconstructible"] is True
    assert rec["kappa"] == 1
    spinor = np.asarray(rec["spinor"])
    target = np.array([1.0, 0.0, 0.0, 0.0])
    assert min(
        np.max(np.abs(spinor - target)), np.max(np.abs(spinor + target))
    ) <= 1e-8


def test_square_negative_kappa_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "square", "[0,1,0,2]", "--p", "2", "--q", "2",
        "--pairing", "plus", "--kappa", "-1",
    )
    assert code == 0
    alpha = json.loads(out)["alpha"]
    code, out, _ = run_cli(capsys, "reconstruct", json.dumps(alpha), "--pairing", "plus")
    assert code == 0
    assert json.loads(out)["kappa"] == -1


def test_payload_commands_reject_bad_input(capsys):
    cases = [
        ("square", "not json", "--p", "3", "--q", "1"),
        ("square", "[1,0]", "--p", "3", "--q", "1"),
        ("square", "[1,0,0,0]"),
        ("square", "[1,0,0,0]", "--p", "5", "--q", "0"),
        ("reconstruct", '{"p":3,"q":1,"coeffs":{"9":1.0}}'),
        ("reconstruct", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--p", "2", "--q", "2"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "error" in err


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize(
    "argv",
    [
        ("square", "[NaN,0,0,0]", "--p", "3", "--q", "1"),
        ("square", "[1,-Infinity,0,0]", "--p", "3", "--q", "1"),
        ("square", "[1e400,0,0,0]", "--p", "3", "--q", "1"),
        ("square", '["nan",0,0,0]', "--p", "3", "--q", "1"),
        ("square", "[1" + "0" * 400 + ",0,0,0]", "--p", "3", "--q", "1"),
        # finite, but its square overflows: numpy warnings and a JSON error once followed
        ("square", "[1e155,1e155,0,0]", "--p", "3", "--q", "1"),
        ("check-polyform", '{"p":3,"q":1,"coeffs":{"":Infinity,"1":0.5}}'),
        ("check-polyform", '{"p":3,"q":1,"coeffs":{"":"inf"}}'),
        ("reconstruct", '{"p":3,"q":1,"coeffs":{"1":NaN,"1,4":1.0}}'),
        ("check-metric", "--preset", "ads4", "--params", '{"lam":NaN}'),
        ("check-metric", "--preset", "ads4", "--params", '{"lam":-1e999}'),
        # finite and nonzero, but its square underflows: it read as the square of 0, or
        # as subnormals that reconstructed to -9.99994e-161 for 1e-160
        ("square", "[1e-200,1e-200,0,0]", "--p", "3", "--q", "1"),
        ("square", "[1e-160,3e-160,0,0]", "--p", "3", "--q", "1"),
    ],
)
def test_non_finite_payloads_exit_two(capsys, argv):
    assert_usage_error(*run_cli(capsys, *argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("check-polyform", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--tol", "nan"),
        ("reconstruct", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--tol", "inf"),
        # an infinite tolerance would pass every campaign
        ("check-metric", "--preset", "ads4", "--check", "killing", "--tol", "inf"),
        ("check-metric", "--preset", "ads4", "--tol", "nan"),
        ("check-metric", "--preset", "ads4", "--lambda", "nan"),
        ("check-metric", "--preset", "ads4", "--lambda", "inf"),
        ("check-metric", "--preset", "ads4-deformed-bessel", "--c", "inf"),
        ("check-metric", "--preset", "ads4-deformed-bessel", "--a", "1,nan,1,0"),
        ("check-metric", "--preset", "ads4", "--perturb", "nan"),
        ("check-metric", "--preset", "ads4", "--perturb=-inf"),
    ],
)
def test_non_finite_flags_exit_two(capsys, argv):
    assert_usage_error(*run_cli(capsys, *argv))


@pytest.mark.parametrize("p, q", [("3.9", "1.2"), ("true", "1"), ('"3"', "1")])
@pytest.mark.parametrize("command, body", [
    ("square", '"components":[1,0,0,0]'),
    ("reconstruct", '"coeffs":{"1":1.0}'),
    ("check-polyform", '"coeffs":{"1":1.0}'),
])
def test_payload_signature_must_be_json_integers(capsys, command, body, p, q):
    # int() used to run these as (3,1)
    payload = f'{{"p":{p},"q":{q},{body}}}'
    assert_usage_error(*run_cli(capsys, command, payload))


@pytest.mark.parametrize("argv, same_as", [
    # malformed payloads: one error line, exit 2, nothing on stdout
    pytest.param(("reconstruct", '{"p":3,"q":1,"coeffs":[1,2]}'), None, id="coeffs-list"),
    pytest.param(("reconstruct", '{"p":3,"q":1,"coeffs":{"1":null}}'), None, id="null-coeff"),
    pytest.param(("reconstruct", "[1,2]", "--p", "3", "--q", "1"), None, id="list-polyform"),
    pytest.param(("check-polyform", '"1"', "--p", "3", "--q", "1"), None, id="string-polyform"),
    pytest.param(("check-polyform", '{"coeffs":{"1":1}}'), None, id="no-signature"),
    # true and strings are not numbers, as coefficients or as components
    pytest.param(("reconstruct", '{"p":3,"q":1,"coeffs":{"1":true}}'), None, id="true-coeff"),
    pytest.param(("check-polyform", '{"p":3,"q":1,"coeffs":{"1":"1"}}'), None,
                 id="string-coeff"),
    pytest.param(("square", "[true,0,0,0]", "--p", "3", "--q", "1"), None, id="true-component"),
    pytest.param(("square", '{"p":3,"q":1,"components":["1",0,0,0]}'), None,
                 id="string-component"),
    # a spinor payload is a component list, or an object whose components are one
    pytest.param(("square", '{"p":3,"q":1,"components":1}'), None, id="number-components"),
    pytest.param(("square", '{"p":3,"q":1}'), None, id="no-components"),
    pytest.param(("square", '"1"', "--p", "3", "--q", "1"), None, id="string-spinor"),
    # a polyform payload takes its signature from the flags, as a spinor payload does
    pytest.param(("check-polyform", '{"coeffs":{"1":1}}', "--p", "3", "--q", "1"),
                 ("check-polyform", '{"p":3,"q":1,"coeffs":{"1":1}}'), id="check-flags"),
    pytest.param(("reconstruct", '{"coeffs":{"1":1,"1,2":-1}}', "--p", "2", "--q", "2"),
                 ("reconstruct", '{"p":2,"q":2,"coeffs":{"1":1,"1,2":-1}}'),
                 id="reconstruct-flags"),
])
def test_payloads_are_parsed_strictly(capsys, argv, same_as):
    got = run_cli(capsys, *argv)
    if same_as is None:
        assert_usage_error(*got)
    else:
        assert got == run_cli(capsys, *same_as) and got[0] == 0


@pytest.mark.parametrize("from_stdin, argv", [
    pytest.param(("square", "--p", "3", "--q", "1"),
                 ("square", "[1,0,0,0]", "--p", "3", "--q", "1"), id="square-omitted"),
    pytest.param(("check-polyform", "-"),
                 ("check-polyform", '{"p":3,"q":1,"coeffs":{"1":1,"1,4":1}}'), id="polyform-dash"),
])
def test_a_payload_on_stdin_reads_as_in_argv(capsys, monkeypatch, from_stdin, argv):
    # argv[1] is the payload, given on stdin to the run of from_stdin
    monkeypatch.setattr(sys, "stdin", io.StringIO(argv[1]))
    got = run_cli(capsys, *from_stdin)
    assert got == run_cli(capsys, *argv) and got[0] == 0


@pytest.mark.parametrize("coeffs", [
    # two spellings of e^1 used to overwrite each other, scoring only the last
    '{" 1":1,"+1":-1,"1":0.5}',
    '{" 1":1}', '{"+1":1}', '{"01":1}', '{"1, 4":1}', '{"4,1":1}', '{"1,1":1}', '{"1,":1}',
])
@pytest.mark.parametrize("command", ["check-polyform", "reconstruct"])
def test_polyform_basis_keys_must_be_canonical(capsys, command, coeffs):
    assert_usage_error(*run_cli(capsys, command, f'{{"p":3,"q":1,"coeffs":{coeffs}}}'))


@pytest.mark.parametrize("lam", ["1e-200", "7.3e-200", "1e-160", "1e200"])
def test_out_of_range_lambda_exits_two(capsys, lam):
    # 1e-200 used to die in 1.0 / lam**2 with a ZeroDivisionError and exit 1
    assert_usage_error(*run_cli(
        capsys, "check-metric", "--preset", "ads4", "--lambda", lam, "--check", "einstein",
    ))


def test_non_finite_report_is_never_printed(capsys, monkeypatch):
    real = cli.verify_square_conditions

    def nan_residual(*args, **kwargs):
        return real(*args, **kwargs)._replace(residual_rank_one=float("nan"))

    monkeypatch.setattr(cli, "verify_square_conditions", nan_residual)
    code, out, err = run_cli(capsys, "check-polyform", '{"p":3,"q":1,"coeffs":{"":1.0}}')
    assert_usage_error(code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        ("square", "[1,0,0,0]", "--p", "3", "--q", "1", "--tol", "nan"),
        ("square", "[1,0,0,0]", "--p", "3", "--q", "1", "--tol", "1e-3"),
        ("square", "[1,0,0,0]", "--p", "3", "--q", "1", "--trials", "5"),
        ("square", "[1,0,0,0]", "--p", "3", "--q", "1", "--seed", "3"),
        ("reconstruct", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--trials", "5"),
        ("reconstruct", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--seed", "3"),
        ("check-polyform", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--trials", "5"),
        ("check-polyform", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--seed", "3"),
        # verify-algebra's checks are exact: there is no tolerance to give
        ("verify-algebra", "--p", "3", "--q", "1", "--trials", "2", "--tol", "nan"),
    ],
)
def test_flags_a_command_ignores_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_trials_cap_bounds(capsys):
    ok = cli._require_trials(argparse.Namespace(trials=cli.MAX_TRIALS))
    assert ok == cli.MAX_TRIALS
    for trials in (0, -1, cli.MAX_TRIALS + 1, 10**9):
        with pytest.raises(cli.UsageError):
            cli._require_trials(argparse.Namespace(trials=trials))


@pytest.mark.parametrize("trials", [str(10**9), str(cli.MAX_TRIALS + 1)])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify-algebra", "--p", "4", "--q", "4"),
        ("check-metric", "--preset", "ads4", "--check", "killing,einstein"),
        ("check-metric", "--preset", "ads4", "--check", "einstein"),
    ],
)
def test_huge_trials_exit_two_before_any_work(capsys, monkeypatch, argv, trials):
    # the work of each command fails the test if reached: a campaign is
    # sized by --trials, and verify-algebra only range-checks it
    # (check-polyform takes no --trials: it has no probes to count)
    from kaspin import geometry_lab

    def reached(*args, **kwargs):
        raise AssertionError("work started before --trials was checked")

    monkeypatch.setattr(cli, "_generator_residuals", reached)
    monkeypatch.setattr(geometry_lab, "run_campaign", reached)
    assert_usage_error(*run_cli(capsys, *argv, "--trials", trials))


def test_reconstruct_negative_verdict_is_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", '{"p":3,"q":1,"coeffs":{"":1.0}}')
    assert code == 0
    report = json.loads(out)
    assert report["reconstructible"] is False
    assert "reason" in report


def test_reconstruct_huge_non_square_is_rejected(capsys):
    code, out, _ = run_cli(
        capsys, "reconstruct", '{"p":3,"q":1,"coeffs":{"1":1e300,"1,4":1e300}}'
    )
    assert code == 0
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in output"))
    assert report["reconstructible"] is False


def test_check_polyform_verdicts(capsys):
    code, out, _ = run_cli(capsys, "check-polyform", '{"p":3,"q":1,"coeffs":{"":1.0}}')
    assert code == 0
    assert json.loads(out)["is_square"] is False

    code, out, _ = run_cli(capsys, "square", "[0.5,-1,0,2]", "--p", "3", "--q", "1")
    assert code == 0
    alpha = json.loads(out)["alpha"]
    code, out, _ = run_cli(capsys, "check-polyform", json.dumps(alpha))
    assert code == 0
    report = json.loads(out)
    assert report["is_square"] is True
    assert report["residual_rank_one"] <= report["tol"]
    assert sorted(report) == [
        "command", "is_square", "pairing", "residual_rank_one", "residual_symmetry",
        "signature", "tol",
    ]


@pytest.mark.parametrize("tol", ["1e-12", "1e-9", "1e-6", "1e-4", "1e-2"])
@pytest.mark.parametrize("pq", [(3, 1), (2, 2), (4, 4)])
def test_check_polyform_and_reconstruct_agree_at_equal_tol(capsys, pq, tol):
    # one shared test decides both, so the verdicts agree at every tol,
    # including near it: perturbations span 1e-14 .. 1e-1
    from kaspin.clifford_rep import Spinor, build_pairings, build_rep
    from kaspin.ka_core import Multivector, Signature
    from kaspin.spinor_square import square

    pr = build_pairings(build_rep(Signature(*pq)))
    rng = np.random.default_rng([pq[0], pq[1]])
    seen = set()
    for size in 10.0 ** np.arange(-14, 0):
        for tag in ("plus", "minus"):
            xi = rng.standard_normal(pr.rep.N)
            alpha = square(pr, tag, int(rng.choice([-1, 1])), Spinor(pr.rep, xi)).alpha
            noise = rng.standard_normal(alpha.coeffs.shape)
            noise *= size * alpha.norm_inf() / np.max(np.abs(noise))
            payload = (alpha + Multivector(alpha.sig, noise)).to_json()
            args = (payload, "--pairing", tag, "--tol", tol)
            _, out, _ = run_cli(capsys, "check-polyform", *args)
            is_square = json.loads(out)["is_square"]
            _, out, _ = run_cli(capsys, "reconstruct", *args)
            assert json.loads(out)["reconstructible"] is is_square, (size, tag)
            seen.add(is_square)
    assert seen == {True, False}


def test_check_metric_ads4_multi_check(capsys):
    argv = (
        "check-metric", "--preset", "ads4", "--lambda", "1",
        "--check", "killing,einstein", "--trials", "10", "--seed", "7",
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports, list) and len(reports) == 2
    for report in reports:
        assert report["verdict"] == "pass"
        assert report["seed"] == 7
        assert report["points"] == 10
    assert err.count("check-metric ads4") == 2

    code2, out2, _ = run_cli(capsys, *argv)
    assert code2 == 0
    assert out2 == out


def test_check_metric_single_check_is_object(capsys):
    code, out, _ = run_cli(
        capsys, "check-metric", "--preset", "ads4-deformed-poly",
        "--a", "1,0.5,0.2,0.1", "--check", "einstein", "--trials", "8",
    )
    assert code == 0
    report = json.loads(out)
    assert isinstance(report, dict)
    assert report["verdict"] == "pass"
    assert report["params"]["a"] == [1.0, 0.5, 0.2, 0.1]


@pytest.mark.parametrize("a", ["1,1,1,1", "1,0.5,-0.2,0.1", "0,1,1,1"])
def test_check_metric_poly_carries_its_pair_for_every_a(capsys, a):
    # the pair needs no gauge square, so killing runs where s_frak is not
    # attached; these a used to exit 2 with "carries no pair data"
    code, out, err = run_cli(
        capsys, "check-metric", "--preset", "ads4-deformed-poly", "--a", a, "--check", "killing",
    )
    assert code == 0, err
    assert json.loads(out)["verdict"] == "pass"


def test_check_metric_perturbation_is_detected(capsys):
    code, out, _ = run_cli(
        capsys, "check-metric", "--preset", "ads4-deformed-poly",
        "--a", "1,0.5,0.2,0.1", "--check", "einstein",
        "--perturb", "0.01", "--trials", "8",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["residuals"]["einstein.f_equation"]["max"] > 1e-3


def test_check_metric_heterotic_and_bianchi(capsys):
    code, out, _ = run_cli(
        capsys, "check-metric", "--preset", "heterotic-ppwave",
        "--check", "heterotic,bianchi", "--trials", "6",
    )
    assert code == 0
    reports = json.loads(out)
    assert all(r["verdict"] == "pass" for r in reports)
    assert reports[1]["residuals"]["bianchi.modified"]["max"] <= 1e-9


def test_check_metric_heterotic_reports_seven_residuals(capsys):
    code, out, _ = run_cli(
        capsys, "check-metric", "--preset", "heterotic-ppwave", "--check", "heterotic",
        "--trials", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert list(report["residuals"]) == [f"heterotic.{name}" for name in (
        "bianchi", "dilatino", "dphi_closed", "gaugino", "gravitino", "rho_coclosed", "square")]


def test_check_metric_params_json_merge(capsys):
    # explicit flags win over the --params blob
    code, out, _ = run_cli(
        capsys, "check-metric", "--preset", "ads4",
        "--params", '{"lam": 0.25}', "--lambda", "2", "--check", "einstein",
        "--trials", "5",
    )
    assert code == 0
    assert json.loads(out)["params"]["lam"] == 2.0


def test_check_metric_usage_errors(capsys):
    cases = [
        ("check-metric", "--preset", "nope"),
        ("check-metric", "--preset", "ads4", "--check", "susy"),
        ("check-metric", "--preset", "minkowski", "--check", "heterotic"),
        ("check-metric", "--preset", "walker-generic"),
        ("check-metric", "--preset", "minkowski", "--check", "walker"),
        ("check-metric", "--preset", "ads4", "--params", "[1,2]"),
        ("check-metric", "--preset", "ads4", "--params", "{bad"),
        ("check-metric", "--preset", "ads4", "--trials", "0"),
        ("check-metric", "--preset", "ads4", "--lambda", "0"),
        ("check-metric", "--preset", "ads4", "--tol", "-1"),
        ("check-metric", "--preset", "ads4", "--check", ","),
        ("check-metric", "--preset", "ads4", "--check", " "),
    ]
    # preset parameters are JSON numbers (or lists of them): no traceback, and
    # no silent coercion of "1234", true or "2"
    for name, params in [
        ("ads4-deformed-poly", '{"a": null}'),
        ("ads4-deformed-poly", '{"a": 5}'),
        ("ads4-deformed-poly", '{"a": [1, 2, 3, {}]}'),
        ("ads4-deformed-poly", '{"a": "1234"}'),
        ("ads4-deformed-poly", '{"lam": [1]}'),
        ("ads4-deformed-poly", '{"lam": true}'),
        ("ads4-deformed-poly", '{"lam": "2"}'),
        ("ads4-deformed-bessel", '{"c": null}'),
        ("heterotic-ppwave", '{"omega": null}'),
        ("heterotic-ppwave", '{"q0": [[1, 0], [0, "1"]]}'),
    ]:
        cases.append(("check-metric", "--preset", name, "--params", params))
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "error" in err


def test_check_metric_rejects_a_repeated_check_before_any_campaign(capsys, monkeypatch):
    from kaspin import geometry_lab

    # the reports carry no check name: a repeat would print two identical reports
    ran = []
    monkeypatch.setattr(geometry_lab, "run_campaign", lambda *args, **kwargs: ran.append(args))
    for checks in ("einstein,einstein", "killing,einstein,killing", "einstein, einstein"):
        code, out, err = run_cli(capsys, "check-metric", "--preset", "ads4", "--check", checks)
        assert_usage_error(code, out, err)
        assert "more than once" in err, checks
    assert ran == []


@pytest.mark.parametrize("name", ["minkowski", "heterotic-ppwave"])
@pytest.mark.parametrize("perturb", ["-1", "-2"])
def test_check_metric_rejects_a_rescale_that_is_not_positive(capsys, name, perturb):
    # no bare "Singular matrix" at -1, and no einstein pass on the sign-flipped metric at -2
    code, out, err = run_cli(capsys, "check-metric", "--preset", name,
                             "--check", "einstein,killing", f"--perturb={perturb}", "--trials", "3")
    assert_usage_error(code, out, err)
    assert "rescales the metric by 1 + perturb" in err


def test_check_metric_scores_a_rescale_above_zero_and_any_surface_bump(capsys):
    for name in ("minkowski", "heterotic-ppwave"):
        code, out, _ = run_cli(capsys, "check-metric", "--preset", name, "--check", "killing",
                               "--perturb=-0.999", "--trials", "3")
        assert code == 0 and json.loads(out)["verdict"] == "fail", name
    # a surface preset bumps K rather than rescaling the metric
    for perturb in ("-1", "-2", "-0.999"):
        code, out, _ = run_cli(capsys, "check-metric", "--preset", "ads4", "--check", "einstein",
                               f"--perturb={perturb}", "--trials", "3")
        assert code == 0 and json.loads(out)["verdict"] == "fail", perturb


def test_check_help_names_exactly_the_checks_of_the_table():
    from kaspin import geometry_lab

    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    check = next(a for a in sub.choices["check-metric"]._actions if a.dest == "check")
    assert check.help == "comma list: " + ",".join(geometry_lab._CHECKS)


def test_check_metric_tests_every_check_before_any_campaign(capsys, monkeypatch):
    from kaspin import geometry_lab

    def unreachable(*args, **kwargs):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(geometry_lab, "run_campaign", unreachable)
    for checks, missing in [("killing,einstein,heterotic", "heterotic"),
                            ("einstein,walker,bianchi", "heterotic"),
                            ("einstein,susy", None)]:
        code, out, err = run_cli(capsys, "check-metric", "--preset", "ads4", "--check", checks)
        assert code == 2
        assert out == ""
        want = ("error: unknown check 'susy'" if missing is None
                else f"error: preset ads4 carries no {missing} data")
        assert err.splitlines() == [want]


def test_cli_argparse_errors_map_to_two(capsys):
    # argparse's errors once printed a usage synopsis above the error line
    for argv in [
        ("check-metric", "--preset", "ads4", "--a", "1,zz"),
        ("no-such-command",),
        (),
        # argparse reads these values as options: they go as --perturb=-1e-3 and --a=-1,...
        ("check-metric", "--preset", "ads4", "--perturb", "-1e-3"),
        ("check-metric", "--preset", "ads4-deformed-poly", "--a", "-1,0.5,0.2,0.1"),
    ]:
        assert_usage_error(*run_cli(capsys, *argv))


def test_check_metric_scores_every_check_before_its_first_stderr_line(capsys):
    # walker's verdict line once preceded einstein's overflow error
    code, out, err = run_cli(capsys, "check-metric", "--preset", "ads4-deformed-bessel",
                             "--check", "walker,einstein", "--trials", "2", "--perturb", "0.1",
                             "--c", "1e-160")
    assert_usage_error(code, out, err)
    assert err.startswith("error: overflow")


def test_env_tol_default_and_flag_override(capsys):
    # check-metric's own default tol is 1e-6; --tol is the one override
    # (K + 1e-4 reads about 5e-3 here: above 1e-6, below 0.1)
    argv = (
        "check-metric", "--preset", "ads4-deformed-poly", "--check", "einstein",
        "--perturb", "1e-4", "--trials", "5",
    )
    code, out, _ = run_cli(capsys, *argv, "--tol", "0.1")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"

    for tol in ((), ("--tol", "1e-6")):
        code, out, _ = run_cli(capsys, *argv, *tol)
        assert code == 0
        assert json.loads(out)["verdict"] == "fail"


def test_out_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "check-metric", "--preset", "minkowski", "--check", "killing",
        "--trials", "5", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == out
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ("square", '{"p":3,"q":1,"components":[1,0,0,0]}'),
    ("check-metric", "--preset", "minkowski", "--check", "killing", "--trials", "5"),
])
def test_unwritable_out_path_exits_two_with_empty_stdout(capsys, tmp_path, argv):
    # the report used to reach stdout before the write failed
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "report.json"))
    assert code == 2
    assert out == ""
    assert len([line for line in err.splitlines() if line.startswith("error: ")]) == 1, err


@pytest.mark.parametrize("argv", [
    ("--preset", "ads4-deformed-bessel", "--c", "1000"),
    # K ~ 1e300, so dK (x) dK overflows (killing and einstein give verdicts here)
    ("--preset", "ads4", "--lambda", "1e-150", "--check", "walker"),
    # e^(c x) ~ 1e260 in F, whose square the curvature terms reach
    ("--preset", "ads4-deformed-bessel", "--c", "400"),
    # exp(2 phase) overflows in the transverse block: libm once said "math range error"
    ("--preset", "heterotic-ppwave", "--params", '{"amp":1e3}', "--check", "killing"),
])
def test_check_metric_overflow_is_an_input_error(argv):
    # a fresh interpreter, so a warning or traceback would reach stderr as users see it
    env = dict(os.environ, PYTHONPATH=str(Path(kaspin.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kaspin.cli", "check-metric", *argv, "--trials", "5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "math range error" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error:")


def test_check_metric_bessel_overflow_says_exp_of_c_x_overflows(capsys):
    # libm's bare "math range error" was the whole message
    code, out, err = run_cli(capsys, "check-metric", "--preset", "ads4-deformed-bessel",
                             "--c", "1000", "--check", "einstein")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: c 1000.0 is out of range: exp(c * x) overflows once squared on the sample box "
        "|x| <= 1.5; c must be at most 236.59"]


@pytest.mark.parametrize("argv, verdicts", [
    # the tensor rule failed these exact pairs: r_u read 3.05e-5 and 64
    (("--lambda", "1e-5", "--check", "killing"), ["pass"]),
    (("--lambda", "1e-8", "--check", "killing"), ["pass"]),
    # an absolute floor on u exited 2 here with "u vanishes at the sample point"
    (("--lambda", "1e6", "--check", "killing"), ["pass"]),
    (("--lambda", "1e150", "--check", "killing"), ["pass"]),
    # the floored invariants overflowed here in float_power
    (("--lambda", "1e-150", "--check", "einstein,killing"), ["pass", "pass"]),
])
def test_check_metric_killing_gives_verdicts_at_every_scale(capsys, argv, verdicts):
    code, out, err = run_cli(capsys, "check-metric", "--preset", "ads4", *argv)
    assert code == 0, err
    reports = json.loads(out, parse_constant=_no_constants)
    reports = reports if isinstance(reports, list) else [reports]
    assert [report["verdict"] for report in reports] == verdicts
    assert set(reports[-1]["residuals"]) == {"killing.square", "killing.ka"}


# ---------------------------------------------------------------------------
# the README's examples
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, lang):
    """The first fenced `lang` block under the README section `heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _no_constants(token):
    raise ValueError(f"non-finite JSON number {token}")


README_COMMANDS = [shlex.split(line)[1:] for line in readme_block("Command line", "sh").splitlines()
                   if line.startswith("kaspin ")]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_commands_exit_zero_with_strict_json(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    json.loads(out, parse_constant=_no_constants)


def test_readme_library_example_runs():
    namespace = {}
    exec(readme_block("Library example", "python"), namespace)
    assert namespace["rec"].kappa == 1


# ---------------------------------------------------------------------------
# the contract over any argv: exit 0 or 1 with strict JSON on stdout, 1 only from
# verify-algebra, or exit 2 with empty stdout and one `error:` line
# ---------------------------------------------------------------------------

# numbers as typed on a command line or in a payload: signed zeros, subnormals, the edge of
# float64, 30-digit integers, non-finite spellings and values that start with "-"
NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "-0.0", "5e-324", "-2.2e-308", "1e-160", "1e308", "-1e308",
                     "nan", "inf", "-inf", "NaN", "-Infinity", "1", "-1", "0.5", "-1e-3",
                     "1" + "0" * 29, "-" + "9" * 30]),
    st.floats().map(repr),
    st.floats(-10.0, 10.0).map(repr),
    st.integers(-10**30, 10**30).map(str),
)
SIGNATURES = st.sampled_from([(3, 1), (2, 2), (1, 1), (2, 0), (4, 2), (4, 4),
                              (0, 2), (3, 0), (1, 3), (5, 4)])
BLADE_KEYS = ["", "1", "2", "4", "1,2", "1,4", "3,4", "1,2,3", "1,2,3,4", "9"]
CHECKS = ["killing", "einstein", "walker", "heterotic", "bianchi", "susy"]
PRESETS = ["minkowski", "ads4", "ads4-deformed-poly", "ads4-deformed-bessel",
           "heterotic-ppwave", "walker-generic", "nope"]


def _flag(name, values):
    """--name value or --name=value."""
    return st.tuples(values, st.booleans()).map(
        lambda t: [f"{name}={t[0]}"] if t[1] else [name, t[0]])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["verify-algebra", "square", "reconstruct",
                                    "check-polyform", "check-metric"]))
    p, q = draw(SIGNATURES)
    sig_flags = ["--p", str(p), "--q", str(q)]
    small_ints = st.sampled_from(["0", "1", "2", "3", "-1", str(cli.MAX_TRIALS + 1), "9" * 30])
    pairing = _flag("--pairing", st.sampled_from(["plus", "minus", "zero"]))
    if command == "verify-algebra":
        argv, optional = [command, *sig_flags], [_flag("--trials", small_ints),
                                                 _flag("--seed", small_ints)]
    elif command == "square":
        n = draw(st.sampled_from([1 << ((p + q) // 2), 4, 3]))
        payload = "[" + ",".join(draw(st.lists(NUMBERS, min_size=n, max_size=n))) + "]"
        argv = [command, payload, *sig_flags]
        optional = [pairing, _flag("--kappa", st.sampled_from(["1", "-1", "2"]))]
    elif command in ("reconstruct", "check-polyform"):
        coeffs = draw(st.dictionaries(st.sampled_from(BLADE_KEYS), NUMBERS, max_size=4))
        body = ",".join(f"{json.dumps(key)}:{value}" for key, value in coeffs.items())
        argv = [command, f'{{"p":{p},"q":{q},"coeffs":{{{body}}}}}']
        optional = [pairing, _flag("--tol", NUMBERS)]
    else:
        checks = draw(st.lists(st.sampled_from(CHECKS), min_size=1, max_size=3, unique=True))
        argv = [command, "--preset", draw(st.sampled_from(PRESETS)),
                "--check", ",".join(checks), "--trials", draw(st.sampled_from(["1", "2", "3"]))]
        four = st.lists(NUMBERS, min_size=4, max_size=4).map(",".join)
        optional = [_flag("--lambda", NUMBERS), _flag("--c", NUMBERS), _flag("--a", four),
                    _flag("--perturb", NUMBERS), _flag("--tol", NUMBERS),
                    _flag("--seed", small_ints), _flag("--trials", small_ints)]
    for option in draw(st.lists(st.sampled_from(optional), max_size=3, unique_by=id)):
        argv += draw(option)
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=argvs())
def test_every_argv_keeps_the_exit_contract(argv):
    # in-process, as run_cli, with --help left out: it prints usage and exits 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and (code != 1 or argv[0] == "verify-algebra"), (code, err)
    if code == 2:
        assert_usage_error(code, out, err)
    else:
        json.loads(out, parse_constant=_no_constants)
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the process entry: `python -m kaspin.cli` runs cli.run, which flushes and
# leaves through os._exit, so nothing may depend on interpreter teardown
# ---------------------------------------------------------------------------


def run_process(*argv, entry=("-m", "kaspin.cli"), **kwargs):
    """A fresh `python -m kaspin.cli` process on this checkout; kwargs go to subprocess.run.

    Its stdout is block-buffered, as a user's is, so a report still in the buffer at exit shows.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(kaspin.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *entry, *argv], env=env, **kwargs)


# --check names each check once, so no invocation reports more than a pipe holds (64 KB); a
# campaign report padded by 90 KB stands in for one, in a process entered as cli.run() is
PADDED = ("-c", "from kaspin import cli, geometry_lab as g; run = g.run_campaign; "
          "g.run_campaign = lambda *a, **k: dict(run(*a, **k), padding='x' * 90_000); cli.run()")
LARGE = ("check-metric", "--preset", "minkowski", "--check", "killing", "--trials", "1")


def padded(run_campaign):
    """run_campaign with its reports padded as the PADDED process pads them."""
    return lambda *args, **kwargs: dict(run_campaign(*args, **kwargs), padding="x" * 90_000)


@pytest.mark.parametrize("argv, code, err_lines", [
    # a negative verdict is a successful run
    (("check-polyform", '{"p":3,"q":1,"coeffs":{"1":1.0,"2":1.0}}'), 0, 1),
    (("square", "[1,0,0,0]"), 2, 1),
    (("check-metric", "--preset", "ads4", "--check", "killing,einstein,walker", "--trials", "5"),
     0, 3),
    (LARGE, 0, 1),
], ids=["negative-verdict", "usage-error", "multi-check", "large-report"])
def test_a_process_delivers_what_main_reports(capsys, monkeypatch, tmp_path, argv, code,
                                              err_lines):
    from kaspin import geometry_lab

    if argv[0] == "check-metric":
        out_path = tmp_path / "report.json"
        argv += ("--out", str(out_path))
    large = argv[:len(LARGE)] == LARGE
    if large:
        monkeypatch.setattr(geometry_lab, "run_campaign", padded(geometry_lab.run_campaign))
    proc = run_process(*argv, entry=PADDED if large else ("-m", "kaspin.cli"), capture_output=True)
    want_code, want_out, want_err = run_cli(capsys, *argv)
    assert not large or len(proc.stdout) > 2**16
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
        want_code, want_out.encode(), want_err)
    assert want_code == code
    assert len(want_err.splitlines()) == err_lines and "Traceback" not in want_err
    if code == 0:
        json.loads(proc.stdout, parse_constant=_no_constants)
    else:
        assert proc.stdout == b"" and want_err.startswith("error: signature required")
    if argv[0] == "check-metric":
        assert out_path.read_bytes() == proc.stdout


@pytest.mark.parametrize("argv, entry", [
    (("square", "[1,0,0,0]", "--p", "3", "--q", "1"), ("-m", "kaspin.cli")),
    (LARGE, PADDED),
], ids=["buffered-report", "report-larger-than-a-pipe"])
def test_a_process_whose_reader_is_gone_exits_two_with_a_one_line_error(argv, entry):
    # the read end is closed before the child starts, so every write to stdout breaks the pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process(*argv, entry=entry, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        "error: [Errno 32] Broken pipe"]


def test_a_process_started_without_stdout_still_exits_zero():
    # Python sets sys.stdout to None when fd 1 is closed at start; print then writes nothing
    proc = run_process("square", "[1,0,0,0]", "--p", "3", "--q", "1",
                       stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0
    assert proc.stderr.decode() == "square (3,1)/minus: grades [1, 2]\n"
