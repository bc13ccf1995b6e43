"""The campaigns plan: preset, check, perturbation and expected verdict.

Kept apart from wl_campaigns so that cli-cold can reuse it without
importing kaspin.geometry_lab into its own process.
"""

POINTS = 20  # the CLI's default campaign size
DEFECT_POINTS = 100  # the known-defect cases sample more points, so a defect seen at few shows
PRESETS = ("minkowski", "ads4", "ads4-deformed-poly", "ads4-deformed-bessel", "heterotic-ppwave")
FD_PRESET = "walker-generic"

# (preset, check, perturbed, expected verdict)
PLAN = [
    ("minkowski", "killing", False, "pass"),
    ("minkowski", "einstein", False, "pass"),
    ("ads4", "killing", False, "pass"),
    ("ads4", "einstein", False, "pass"),
    ("ads4", "walker", False, "pass"),
    ("ads4-deformed-poly", "killing", False, "pass"),
    ("ads4-deformed-poly", "einstein", False, "pass"),
    ("ads4-deformed-poly", "walker", False, "pass"),
    ("ads4-deformed-bessel", "einstein", False, "pass"),
    ("ads4-deformed-bessel", "walker", False, "pass"),
    ("heterotic-ppwave", "killing", False, "pass"),
    ("heterotic-ppwave", "einstein", False, "fail"),
    ("heterotic-ppwave", "heterotic", False, "pass"),
    ("heterotic-ppwave", "bianchi", False, "pass"),
    ("minkowski", "killing", True, "fail"),
    ("ads4", "killing", True, "fail"),
    ("ads4", "einstein", True, "fail"),
    ("ads4", "walker", True, "fail"),
    ("ads4-deformed-poly", "killing", True, "fail"),
    ("ads4-deformed-poly", "einstein", True, "fail"),
    ("ads4-deformed-poly", "walker", True, "fail"),
    ("ads4-deformed-bessel", "einstein", True, "fail"),
    ("heterotic-ppwave", "killing", True, "fail"),
    (FD_PRESET, "einstein", True, "fail"),
    (FD_PRESET, "walker", True, "fail"),
]

# The finite-difference chart of exact AdS4 must pass both checks, but
# fails them today (see known_defect), so these run once per run, after
# the timed phase, and are reported by name; the timed plan exercises
# the same chart through its perturbed controls.
DEFECT_CASES = [
    (FD_PRESET, "einstein", False, "pass"),
    (FD_PRESET, "walker", False, "pass"),
]


def known_defect(preset_name, check, expected, verdict):
    """Name of the known defect a wrong verdict reproduces, if any.

    Finite-difference charts fail exact solutions: the second
    differences carry roundoff of about eps/h^2 ~ 2e-6 > tol = 1e-6.
    """
    if preset_name == FD_PRESET and expected == "pass" and verdict == "fail":
        return f"fd-chart-false-fail:{check}"
    return None
