"""campaigns: fixed-size run_campaign calls over every preset, in process.

A cycle runs each preset with each check that applies to it, the
perturbed detection controls, and a walker-generic chart built from the
exact AdS4 callbacks with value-only profiles, so its derivatives come
from centered differences. Expected verdicts come from the mathematics:

* the closed-form presets solve their own equations, except that the
  plane wave is not Ricci-flat, so einstein (lam = 0) must fail there;
* the exact AdS4 data solve einstein and walker however the derivatives
  are taken, so the finite-difference chart must pass both; it fails
  them today, so those two are the known-defect cases, run once per run
  after the timed phase (campaign_plan.DEFECT_CASES), and the timed
  plan runs that chart as perturbed controls;
* a perturbation must fail where it breaks the equation: the pair
  invariants under a metric rescaling, and the F profile's equations.
  It is left out where the equation does not see it (a rescaled flat
  metric stays flat, the walker profile equations of the Bessel family
  do not involve F, the heterotic relations are scale invariant).
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

from kaspin.geometry_lab import preset, run_campaign

import yardstick
from campaign_plan import DEFECT_CASES, DEFECT_POINTS, FD_PRESET, PLAN, POINTS, PRESETS, known_defect
from outcome import Outcome, OpFailure, require
from spans import median_ns


class Workload:
    cycle_len = len(PLAN)
    per_invocation = False
    meter = yardstick.LOOP
    defect_cases = tuple(f"{name}.{check}" for name, check, *_ in DEFECT_CASES)

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.presets = {}
        self.counts = Counter()
        self.metric_evals = 0
        self.evals_per_point = {}

    def _callback(self, fn):
        def wrapped(s):
            return self.tracer.call("bench.callback", fn, s)
        return wrapped

    def _ads4_fd_params(self):
        # exact AdS4 at lam = 1 (F = K = 1/y^2, q2 = delta/y^2, s_frak = 0), value
        # only; s_frak brings F into the walker check, so a perturbed F must fail it
        def profile(s):
            return 1.0 / s[1] ** 2

        def zero(s):
            return 0.0

        def q2(s):
            self.metric_evals += 1
            return np.eye(2) / s[1] ** 2

        return {"lam": 1.0, "F": self._callback(profile), "K": self._callback(profile),
                "q2": self._callback(q2), "s_frak": self._callback(zero)}

    def setup(self):
        T = self.tracer.call
        for name in PRESETS:
            self.presets[name] = T(f"geometry_lab.preset.{name}", preset, name)
        self.presets[FD_PRESET] = T(f"geometry_lab.preset.{FD_PRESET}", preset, FD_PRESET,
                                    self._ads4_fd_params())

    def run_op(self, i):
        return self._campaign(PLAN[i % self.cycle_len], np.random.default_rng([self.seed, i]),
                              POINTS)

    def run_defect(self, j):
        return self._campaign(DEFECT_CASES[j], np.random.default_rng([self.seed, j, 1]),
                              DEFECT_POINTS)

    def _campaign(self, entry, rng, points):
        name, check, perturbed, expected = entry
        kind = f"{name}.{check}" + (".perturbed" if perturbed else "")
        seed = int(rng.integers(1 << 31))
        perturb = float(rng.uniform(0.05, 0.2)) if perturbed else 0.0
        evals_before = self.metric_evals
        try:
            report = self.tracer.call(
                f"geometry_lab.campaign.{name}.{check}", run_campaign,
                self.presets[name], check, n_points=points, seed=seed, perturb=perturb,
            )
            require(report["points"] == points, "wrong point count")
            for res in report["residuals"].values():
                require(math.isfinite(res["max"]) and math.isfinite(res["mean"]),
                        "non-finite residual")
            json.dumps(report, allow_nan=False)
        except (OpFailure, ValueError) as exc:
            return Outcome(False, kind, reason=str(exc))
        except Exception as exc:  # any crash is a failed op, never a harness crash
            return Outcome(False, kind, reason=f"{type(exc).__name__}: {exc}")
        if name == FD_PRESET:
            self.evals_per_point[check] = (self.metric_evals - evals_before) / points
        if report["verdict"] != expected:
            self.counts["false_verdicts"] += 1
            return Outcome(False, kind, known=known_defect(name, check, expected, report["verdict"]),
                           reason=f"verdict {report['verdict']}, expected {expected}")
        return Outcome(True, kind)

    def oracle_agreement(self, load_oracles):
        return {}  # no ka_core kernels are called here

    def layer_metrics(self, durations, traced_ops):
        m = {"geometry_lab.campaign.false_verdicts": self.counts["false_verdicts"]}
        for name in PRESETS + (FD_PRESET,):
            m[f"geometry_lab.preset.{name}.ms"] = median_ns(durations, f"geometry_lab.preset.{name}") / 1e6
        for name, check in dict.fromkeys((name, check) for name, check, *_ in PLAN):
            stem = f"geometry_lab.campaign.{name}.{check}"
            m[f"{stem}.ms_per_point"] = median_ns(durations, stem) / 1e6 / POINTS
        for check, evals in self.evals_per_point.items():
            m[f"geometry_lab.fd.metric_evals_per_point.{check}"] = evals
        return m
