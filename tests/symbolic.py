"""Exact curvature of the surface chart F dv^2 + 2 K dv du + q2, in sympy.

The general chart of the surface presets has coordinates (v, u, x, y), F
and K functions of (x, y), and the surface metric q2 = [[a, b], [b, c]]
with a, b, c functions of (x, y).  Its inverse is written in closed form
(g^vu = 1/K, g^uu = -F/K^2, the surface block q2^-1), so every
expression here is a rational function of the profiles and their
partials, and an identity among them holds exactly when the numerator
of its difference, brought to one fraction, expands to 0.  Christoffel
symbols and Ricci tensors are the textbook sums over sympy matrices,
independent of geometry_lab's contractions.

walker() builds the expressions once per process, in about a second.

preset_jets(name) writes the closed-form fields of a named preset
(ads4, its two deformation families and heterotic-ppwave) as sympy
expressions of the chart coordinates and of the preset's parameters, and
evaluates their exact derivatives in mpmath at any chart point and any of
the preset's params.
"""

import functools
import types

import mpmath
import numpy as np
import sympy as sp


def christoffel(g, ginv, coords):
    """Gamma[k][i][j] = Gamma^k_ij of the metric matrix g with inverse ginv."""
    n = len(coords)
    d = [g.diff(c) for c in coords]
    return [[[sum(ginv[k, m] * (d[i][m, j] + d[j][m, i] - d[m][i, j]) for m in range(n)) / 2
              for j in range(n)] for i in range(n)] for k in range(n)]


def ricci(g, ginv, coords):
    """Ric_sn = d_r Gamma^r_ns - d_n Gamma^r_rs + Gamma^r_rl Gamma^l_ns - Gamma^r_nl Gamma^l_rs."""
    n = len(coords)
    gamma = christoffel(g, ginv, coords)
    trace = [sum(gamma[r][r][s] for r in range(n)) for s in range(n)]

    def entry(s, m):
        return (sum(gamma[r][m][s].diff(coords[r]) for r in range(n))
                - trace[s].diff(coords[m])
                + sum(trace[l] * gamma[l][m][s] for l in range(n))
                - sum(gamma[r][m][l] * gamma[l][r][s] for r in range(n) for l in range(n)))

    return sp.Matrix(n, n, entry)


COORDS = sp.symbols("v u x y", real=True)


def _surface_chart(F, K, q):
    """The metric F dv^2 + 2 K dv du + q2 over COORDS."""
    g = sp.zeros(4, 4)
    g[0, 0], g[0, 1], g[1, 0] = F, K, K
    g[2:, 2:] = q
    return g


@functools.cache
def walker():
    """The chart's symbols and curvature as a namespace of sympy expressions.

    lam is a positive symbol; F, K, a, b, c are undefined functions of x and y.
    E = Ric + 3 lam^2 g over the chart, ricci_q = Ric(q2) over the surface.
    """
    x, y = COORDS[2:]
    lam = sp.Symbol("lam", positive=True)
    F, K, a, b, c = (sp.Function(name)(x, y) for name in "FKabc")
    q = sp.Matrix([[a, b], [b, c]])
    qinv = q.inv()
    g = _surface_chart(F, K, q)
    ginv = sp.zeros(4, 4)
    ginv[0, 1] = ginv[1, 0] = 1 / K
    ginv[1, 1] = -F / K**2
    ginv[2:, 2:] = qinv
    return types.SimpleNamespace(
        coords=COORDS, lam=lam, F=F, K=K, q=q, qinv=qinv, g=g, ginv=ginv,
        E=ricci(g, ginv, COORDS) + 3 * lam**2 * g,
        ricci_q=ricci(q, qinv, (x, y)),
        gamma_q=christoffel(q, qinv, (x, y)),
    )


# ---------------------------------------------------------------------------
# the closed-form presets, exactly
# ---------------------------------------------------------------------------

def _half_plane(lam):
    """The hyperbolic half-plane metric delta/(lam y)^2 of the surface presets."""
    return sp.eye(2) / (lam * COORDS[3]) ** 2


def _ads4():
    lam = sp.Symbol("lam", positive=True)
    y = COORDS[3]
    profile = 1 / (lam * y) ** 2
    chart = _surface_chart(profile, profile, _half_plane(lam))
    return (lam,), lambda p: (p["lam"],), {"chart": chart}


def _poly():
    lam = sp.Symbol("lam", positive=True)
    a = sp.symbols("a1:5", real=True)
    x, y = COORDS[2:]
    F = (a[0] + a[1] * x) * (a[2] * y + a[3] / y**2)
    chart = _surface_chart(F, 1 / (2 * y**2), _half_plane(lam))
    return (lam, *a), lambda p: (p["lam"], *p["a"]), {"chart": chart}


def _bessel():
    lam, c = sp.symbols("lam c", positive=True)
    a = sp.symbols("a1:5", real=True)
    x, y = COORDS[2:]
    z = c * y
    radial = a[2] * sp.expand_func(sp.yn(1, z)) + a[3] * sp.expand_func(sp.jn(1, z))
    F = (a[0] * sp.exp(c * x) + a[1] * sp.exp(-c * x)) * radial
    chart = _surface_chart(F, 1 / (2 * y**2), _half_plane(lam))
    return (lam, c, *a), lambda p: (p["lam"], p["c"], *p["a"]), {"chart": chart}


def _ppwave():
    amp = sp.Symbol("amp", real=True)
    q0 = sp.Matrix(2, 2, sp.symbols("q00 q01 q10 q11", real=True))
    omega = sp.symbols("omega0:3", real=True)
    v = COORDS[0]
    phase = amp * (1 - sp.cos(v))
    chart = sp.zeros(4, 4)
    chart[0, 1] = chart[1, 0] = 1
    chart[2:, 2:] = sp.exp(2 * phase) * q0
    root = sp.exp(phase) / sp.sqrt(q0[0, 0])
    fields = {
        "chart": chart,
        "u": [1, 0, 0, 0],
        "l": [0, 0, root * q0[0, 0], root * q0[1, 0]],
        "varphi": [omega[0] + omega[1] * v + omega[2] * v**2, 0, 0, 0],
    }

    def read(p):
        return (p["amp"], *(entry for row in p["q0"] for entry in row), *p["omega"])

    return (amp, *q0, *omega), read, fields


_PRESETS = {"ads4": _ads4, "ads4-deformed-poly": _poly, "ads4-deformed-bessel": _bessel,
            "heterotic-ppwave": _ppwave}


@functools.cache
def preset_jets(name):
    """field name -> jet(params, point, order) for the named preset's closed-form fields.

    jet gives the field's value at one chart point (v, u, x, y) and its
    exact partials up to order, each part an object array of mpmath numbers
    with the derivative axes first, as Field.jet lays them out after the
    point axes.  params is the preset's own Preset.params, and every float
    of it and of the point enters exactly; the result carries the working
    precision of mpmath.  The chart goes to order 2, one-forms to order 1.
    """
    symbols, read, fields = _PRESETS[name]()
    out = {}
    for field, expr in fields.items():
        parts = [sp.Array(expr)]
        for _ in range(2 if field == "chart" else 1):
            parts.append(sp.derive_by_array(parts[-1], COORDS))
        flat = [list(sp.flatten(part)) for part in parts]
        fn = sp.lambdify((*COORDS, *symbols), flat, modules="mpmath", cse=True)
        shapes = [part.shape for part in parts]

        def jet(params, point, order, fn=fn, shapes=shapes):
            values = fn(*map(mpmath.mpf, point), *map(mpmath.mpf, read(params)))
            return [np.array(values[k], dtype=object).reshape(shapes[k]) for k in range(order + 1)]

        out[field] = jet
    return out
