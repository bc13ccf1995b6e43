"""cli-cold: seeded `python -m kaspin.cli` invocations, one process each.

A cycle of nine invocations, whose signature turns over invocation by
invocation so that every cycle runs (3,1), (2,2) and (4,4): square a
random spinor at each signature; then, at each signature, one of
reconstruct (from the reported polyform), check-polyform of that
polyform, or check-polyform of a perturbed copy, the three rotating
from cycle to cycle; a small verify-algebra; one check-metric campaign
(a perturbed control in some cycles); and one of the squares again,
which must print the same bytes. Every invocation must give the verdict
the mathematics predicts.

The edge payloads (non-finite values, a 1e300-scale polyform, a 1e-200
lambda) are the known-defect cases: each breaks the documented contract
today, so they run once per run, after the timed phase, and are
reported by name instead of failing timed ops. They are judged by that
contract: exit code 0 or 2, strict JSON on stdout when it is 0, no
traceback, and no false verdict.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter

import numpy as np

import yardstick
from campaign_plan import FD_PRESET, PLAN
from outcome import Outcome, OpFailure, require
from spans import median_ns

SIGS = ((3, 1, "minus"), (2, 2, "plus"), (4, 4, "minus"))
CHECKS = ("reconstruct", "check-polyform", "check-polyform.control")
CAMPAIGNS = [entry for entry in PLAN if entry[0] != FD_PRESET]  # walker-generic needs callbacks
CAMPAIGN_POINTS = 5
CONTROL_NOISE = 1e-3
TIMEOUT_S = 60

# edge payload kind -> the known defect its contract breach reproduces
EDGE_DEFECTS = {
    "nan-spinor": "nan-payload-invalid-json",
    "inf-polyform": "inf-payload-invalid-json",
    "huge-polyform": "huge-polyform-false-reconstructible",
    "tiny-lambda": "tiny-lambda-traceback",
}


def cycle_plan(k):
    """(invocation, signature index or None) for each slot of cycle k."""
    n = len(SIGS)
    return ([("square", m) for m in range(n)] + [(CHECKS[(m + k) % n], m) for m in range(n)]
            + [("verify-algebra", k % n), ("check-metric", None), ("square.repeat", (k + 1) % n)])


CYCLE_LEN = len(cycle_plan(0))


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    """Parse JSON the way a strict consumer does: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


class Workload:
    cycle_len = CYCLE_LEN
    per_invocation = True  # every op is a fresh process: no warm-up, RSS of the children
    meter = yardstick.IMPORT
    nominal_op_s = 1.0  # host-scaled time of one invocation; a run is seconds / this of them
    defect_cases = tuple(EDGE_DEFECTS)

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.counts = Counter()
        self.cycle = None

    def setup(self):
        pass

    def oracle_agreement(self, load_oracles):
        return {}  # the kernels run inside the CLI processes

    # -- inputs --------------------------------------------------------------

    def _new_cycle(self, k):
        rng = np.random.default_rng([self.seed, k])
        sigs = []
        for p, q, tag in SIGS:
            sigs.append({
                "p": p, "q": q, "tag": tag,
                "xi": rng.standard_normal(1 << ((p + q) // 2)),
                "kappa": int(rng.choice((-1, 1))),
                "noise_seed": int(rng.integers(1 << 31)),
                "alpha": None, "square_stdout": None,
            })
        self.cycle = {
            "k": k, "sigs": sigs, "plan": cycle_plan(k),
            "campaign": CAMPAIGNS[int(rng.integers(len(CAMPAIGNS)))],
            "campaign_seed": int(rng.integers(1 << 16)),
            "perturb": float(rng.uniform(0.05, 0.2)),
        }

    # -- one op ----------------------------------------------------------------

    def run_op(self, i):
        k, slot = divmod(i, self.cycle_len)
        if self.cycle is None or self.cycle["k"] != k:
            self._new_cycle(k)
        c = self.cycle
        name, m = c["plan"][slot]
        kind = name if m is None else f"{name}.s{SIGS[m][0]}{SIGS[m][1]}"
        try:
            if m is None:
                self._check_metric(c)
            else:
                getattr(self, "_" + name.replace("-", "_").replace(".", "_"))(c, c["sigs"][m])
        except OpFailure as exc:
            return Outcome(False, kind, reason=str(exc))
        except Exception as exc:  # a malformed report or a hung child fails the op
            return Outcome(False, kind, reason=f"{type(exc).__name__}: {exc}")
        return Outcome(True, kind)

    def run_defect(self, j):
        """Edge payload j, judged by the CLI contract; a breach is its known defect."""
        kind = self.defect_cases[j]
        try:
            self._edge(kind, np.random.default_rng([self.seed, j, 1]))
        except OpFailure as exc:
            return Outcome(False, f"edge.{kind}", known=EDGE_DEFECTS[kind], reason=str(exc))
        except Exception as exc:
            return Outcome(False, f"edge.{kind}", reason=f"{type(exc).__name__}: {exc}")
        return Outcome(True, f"edge.{kind}")

    def _invoke(self, sub, *args, allowed=(0,)):
        cmd = [sys.executable, "-m", "kaspin.cli", sub, *args]
        proc = self.tracer.call(
            f"cli.{sub}", subprocess.run, cmd, capture_output=True, text=True, timeout=TIMEOUT_S
        )
        breach = None
        if proc.returncode not in allowed:
            breach = f"exit code {proc.returncode}"
        elif "Traceback" in proc.stderr:
            breach = "traceback on stderr"
        report = None
        if breach is None and proc.returncode == 0:
            try:
                report = strict_json(proc.stdout)
            except ValueError as exc:
                breach = f"stdout is not strict JSON ({exc})"
        if breach is not None:
            self.counts["breaches"] += 1
            tail = proc.stderr.strip().splitlines()[-1:] if proc.stderr.strip() else []
            raise OpFailure(f"{sub}: {breach}" + (f": {tail[0]}" if tail else ""))
        return proc, report

    def _square(self, c, sig):
        payload = json.dumps({"p": sig["p"], "q": sig["q"], "components": sig["xi"].tolist()})
        proc, report = self._invoke("square", payload, "--pairing", sig["tag"],
                                    "--kappa", str(sig["kappa"]))
        require(report["command"] == "square" and report["kappa"] == sig["kappa"], "wrong report")
        alpha = report["alpha"]
        require(alpha["p"] == sig["p"] and alpha["q"] == sig["q"] and alpha["coeffs"],
                "empty square")
        sig["alpha"] = alpha
        sig["square_stdout"] = proc.stdout

    def _alpha(self, sig):
        require(sig["alpha"] is not None, "no polyform: the cycle's square failed")
        return sig["alpha"]

    def _reconstruct(self, c, sig):
        _, report = self._invoke("reconstruct", json.dumps(self._alpha(sig)),
                                 "--pairing", sig["tag"])
        require(report["reconstructible"] is True, "square reported not reconstructible")
        require(report["kappa"] == sig["kappa"], "wrong kappa")
        got, want = np.asarray(report["spinor"]), sig["xi"]
        err = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
        require(err <= 1e-8 * max(1.0, np.max(np.abs(want))), f"round trip off by {err:.3e}")

    def _check_polyform(self, c, sig):
        _, report = self._invoke("check-polyform", json.dumps(self._alpha(sig)),
                                 "--pairing", sig["tag"])
        require(report["is_square"] is True, "square reported as not a square")

    def _check_polyform_control(self, c, sig):
        alpha = self._alpha(sig)
        rng = np.random.default_rng(sig["noise_seed"])
        coeffs = dict(alpha["coeffs"])
        keys = sorted(coeffs)
        noise = rng.standard_normal(len(keys))
        scale = max(abs(v) for v in coeffs.values())
        for key, e in zip(keys, noise / np.max(np.abs(noise))):
            coeffs[key] = coeffs[key] + CONTROL_NOISE * scale * float(e)
        payload = json.dumps({"p": alpha["p"], "q": alpha["q"], "coeffs": coeffs})
        _, report = self._invoke("check-polyform", payload, "--pairing", sig["tag"])
        require(report["is_square"] is False, "perturbed square accepted")

    def _verify_algebra(self, c, sig):
        _, report = self._invoke("verify-algebra", "--p", str(sig["p"]), "--q", str(sig["q"]),
                                 "--trials", "2", "--seed", str(c["campaign_seed"]))
        require(report["verdict"] == "pass", "verify-algebra failed")

    def _check_metric(self, c):
        name, check, perturbed, expected = c["campaign"]
        args = ["--preset", name, "--check", check, "--trials", str(CAMPAIGN_POINTS),
                "--seed", str(c["campaign_seed"])]
        if perturbed:
            args += ["--perturb", repr(c["perturb"])]
        _, report = self._invoke("check-metric", *args)
        require(report["verdict"] == expected,
                f"{name} {check}: verdict {report['verdict']}, expected {expected}")

    def _square_repeat(self, c, sig):
        require(sig["square_stdout"] is not None, "no square to repeat")
        payload = json.dumps({"p": sig["p"], "q": sig["q"], "components": sig["xi"].tolist()})
        proc, _ = self._invoke("square", payload, "--pairing", sig["tag"],
                               "--kappa", str(sig["kappa"]))
        require(proc.stdout == sig["square_stdout"], "stdout differs between identical invocations")

    def _edge(self, kind, rng):
        allowed = (0, 2)
        if kind == "nan-spinor":
            comps = [float(v) for v in rng.standard_normal(4)]
            comps[int(rng.integers(4))] = float("nan")
            self._invoke("square", json.dumps({"p": 3, "q": 1, "components": comps}),
                         allowed=allowed)
        elif kind == "inf-polyform":
            coeffs = {"": float("inf"), "1": float(rng.standard_normal())}
            self._invoke("check-polyform", json.dumps({"p": 3, "q": 1, "coeffs": coeffs}),
                         allowed=allowed)
        elif kind == "huge-polyform":
            # u = e^1 is spacelike, not null, so no spinor squares to this at any scale
            big = float(rng.uniform(1.0, 1.7)) * 1e300
            payload = json.dumps({"p": 3, "q": 1, "coeffs": {"1": big, "1,4": big}})
            _, report = self._invoke("reconstruct", payload, allowed=allowed)
            require(report is None or report.get("reconstructible") is not True,
                    "non-square reported reconstructible")
        else:
            lam = float(rng.uniform(1.0, 9.0)) * 1e-200
            self._invoke("check-metric", "--preset", "ads4", "--lambda", repr(lam),
                         "--check", "einstein", "--trials", str(CAMPAIGN_POINTS), allowed=allowed)

    def layer_metrics(self, durations, traced_ops):
        m = {"cli.contract_breaches": self.counts["breaches"]}
        for sub in ("square", "reconstruct", "check-polyform", "verify-algebra", "check-metric"):
            m[f"cli.{sub}.p50_ms"] = median_ns(durations, f"cli.{sub}") / 1e6
        return m
