"""The benchmark's campaign plan holds on every entry, at both ends of its bump range.

``perfbench/campaign_plan.py`` lists (preset, check, perturbed, expected
verdict). The benchmark draws each perturbed entry's bump from
[0.05, 0.2] and counts a wrong verdict as a failed op, so a verdict that
moves is caught here first. The plan is read by path, as a plain file;
its known-defect cases (DEFECT_CASES) are left out.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kaspin.geometry_lab import preset, run_campaign

PLAN_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "campaign_plan.py"
BUMPS = (0.05, 0.2)


def load_plan():
    spec = importlib.util.spec_from_file_location("campaign_plan", PLAN_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


plan = load_plan()


def fd_params():
    """Exact AdS4 at lam = 1 as value-only callbacks, so the chart's derivatives are differenced."""

    def profile(s):
        return 1.0 / s[1] ** 2

    return {"lam": 1.0, "F": profile, "K": profile, "q2": lambda s: np.eye(2) / s[1] ** 2}


@pytest.mark.parametrize("entry", plan.PLAN, ids=[
    f"{name}-{check}-{'perturbed' if perturbed else 'clean'}"
    for name, check, perturbed, _ in plan.PLAN
])
def test_every_plan_verdict_holds(entry):
    name, check, perturbed, expected = entry
    ps = preset(name, fd_params() if name == plan.FD_PRESET else None)
    for perturb in BUMPS if perturbed else (0.0,):
        for seed in (0, 1):
            report = run_campaign(ps, check, n_points=plan.POINTS, seed=seed, perturb=perturb)
            assert report["verdict"] == expected, (perturb, seed, report["residuals"])
