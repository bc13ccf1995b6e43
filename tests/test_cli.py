"""Command line interface: reports, exit codes, determinism."""

import argparse
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kaspin
from kaspin import _kernels, cli

REP_SIGS = [(2, 0), (1, 1), (3, 1), (2, 2), (4, 2), (3, 3), (4, 4), (5, 3)]


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
        # e_i e_j + e_j e_i = 2 g_ij is exact in every entry
        assert report["checks"]["clifford_relation"]["max"] == 0.0


def test_verify_algebra_unsupported_signature_exits_two(capsys):
    # build_rep raises the ValueError, which main maps to exit 2; square too
    for p, q in [(3, 0), (5, 0), (8, 0), (1, 3)]:
        for argv in (("verify-algebra",), ("square", "[1,0]")):
            code, out, err = run_cli(capsys, *argv, "--p", str(p), "--q", str(q))
            assert code == 2, (argv, p, q)
            assert out == ""
            assert err.startswith("error: ") and "no real irreducible matrix model" in err


def test_verify_algebra_failed_property_exits_one(capsys, monkeypatch):
    # a Bplus cut to its upper triangle is neither symmetric nor
    # antisymmetric, so the measured pairing signs must fail the table
    real_build_pairings = cli.build_pairings

    def broken_pairings(rep):
        pr = real_build_pairings(rep)
        return dataclasses.replace(pr, Bplus=np.triu(pr.Bplus))

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
        ("check-polyform", '{"p":3,"q":1,"coeffs":{"":Infinity,"1":0.5}}'),
        ("check-polyform", '{"p":3,"q":1,"coeffs":{"":"inf"}}'),
        ("reconstruct", '{"p":3,"q":1,"coeffs":{"1":NaN,"1,4":1.0}}'),
        ("check-metric", "--preset", "ads4", "--params", '{"lam":NaN}'),
        ("check-metric", "--preset", "ads4", "--params", '{"lam":-1e999}'),
    ],
)
def test_non_finite_payloads_exit_two(capsys, argv):
    assert_usage_error(*run_cli(capsys, *argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("check-polyform", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--tol", "nan"),
        ("reconstruct", '{"p":3,"q":1,"coeffs":{"":1.0}}', "--tol", "inf"),
        ("verify-algebra", "--p", "3", "--q", "1", "--trials", "2", "--tol", "nan"),
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
        return dataclasses.replace(real(*args, **kwargs), residual_rank_one=float("nan"))

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
    # every path that would size its work by --trials fails the test if
    # reached (check-polyform takes no --trials: it has no probes to count)
    from kaspin import geometry_lab

    def reached(*args, **kwargs):
        raise AssertionError("work started before --trials was checked")

    monkeypatch.setattr(cli, "make_rng", reached)
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
        ("check-metric", "--preset", "ads4-deformed-bessel", "--check", "killing"),
        ("check-metric", "--preset", "walker-generic"),
        ("check-metric", "--preset", "minkowski", "--check", "walker"),
        ("check-metric", "--preset", "ads4", "--params", "[1,2]"),
        ("check-metric", "--preset", "ads4", "--params", "{bad"),
        ("check-metric", "--preset", "ads4", "--trials", "0"),
        ("check-metric", "--preset", "ads4", "--lambda", "0"),
        ("check-metric", "--preset", "ads4", "--tol", "-1"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "error" in err


def test_cli_argparse_errors_map_to_two(capsys):
    assert cli.main(["check-metric", "--preset", "ads4", "--a", "1,zz"]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2
    capsys.readouterr()


def test_env_tol_default_and_flag_override(capsys):
    # check-metric's own default tol is 1e-6; --tol is the one override
    argv = (
        "check-metric", "--preset", "ads4-deformed-poly", "--check", "einstein",
        "--perturb", "0.01", "--trials", "5",
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
    ("--preset", "ads4", "--lambda", "1e-150", "--check", "killing"),
    ("--preset", "ads4", "--lambda", "1e150", "--check", "killing"),
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
    assert proc.stderr.splitlines()[-1].startswith("error:")


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
