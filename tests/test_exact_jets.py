"""Each closed-form preset jet against its exact derivatives (tests/symbolic.py).

The presets write their charts, pairs and dilatons as hand-derived
partials (geometry_lab._closed).  Here sympy differentiates each field
from the preset's own parameters, mpmath evaluates the derivatives at 30
digits at sample-box points, and every part of every jet must lie within
BOUND of that part's max-norm at each point.  The guard does not go
through kaspin._jets.
"""

import mpmath
import numpy as np
import pytest

from kaspin.geometry_lab import _halton, preset

import symbolic

BOUND = 32 * np.finfo(float).eps  # per point and part, relative to the part's max-norm there
POINTS = 20
DIGITS = 30

CASES = [
    *(("ads4", params) for params in ({}, {"lam": 1e-3}, {"lam": 1e3})),
    *(("ads4-deformed-poly", params)
      for params in ({}, {"lam": 1e-3}, {"lam": 1e3}, {"a": [1e300, 1.0, 1.0, 1.0]})),
    *(("ads4-deformed-bessel", params)
      for params in ({}, {"lam": 1e-3}, {"lam": 1e3}, {"a": [1.0, 0.5, 0.3, 0.7]},
                     # c y < 0.5 on the whole box: j1 from its series branch
                     {"c": 0.1, "a": [1.0, 0.5, 0.3, 0.7]})),
    ("heterotic-ppwave", {}),
    ("heterotic-ppwave", {"amp": 1.3, "q0": [[2.0, 0.5], [0.5, 1.0]], "omega": [0.1, -0.4, 0.7]}),
]


def fields(ps):
    """Field name -> (Field, order) of every closed-form field of ps."""
    out = {"chart": (ps.chart, 2)}
    if ps.heterotic is not None:
        out.update(u=(ps.killing.u, 1), l=(ps.killing.l, 1), varphi=(ps.heterotic.varphi, 1))
    return out


@pytest.mark.parametrize("name, params", CASES,
                         ids=[f"{name}-{params}" for name, params in CASES])
def test_each_closed_form_jet_is_its_exact_derivatives(name, params):
    ps = preset(name, params)
    lower, upper = np.asarray(ps.sample_box, dtype=float).T
    x = _halton(POINTS, 17) * (upper - lower) + lower
    exact = symbolic.preset_jets(name)
    assert set(exact) == set(fields(ps))
    for field_name, (field, order) in fields(ps).items():
        got = field.jet(x, order)
        assert len(got) == order + 1
        with mpmath.workdps(DIGITS):
            for i, point in enumerate(x):
                want = exact[field_name](ps.params, point, order)
                for k in range(order + 1):
                    assert got[k][i].shape == want[k].shape, (field_name, k)
                    err = max(abs(mpmath.mpf(a) - b) for a, b in zip(got[k][i].flat, want[k].flat))
                    norm = max(abs(b) for b in want[k].flat)
                    assert err <= BOUND * norm, (field_name, k, point.tolist(), float(err),
                                                 float(norm))
