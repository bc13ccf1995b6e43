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
"""

import functools
import types

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


@functools.cache
def walker():
    """The chart's symbols and curvature as a namespace of sympy expressions.

    lam is a positive symbol; F, K, a, b, c are undefined functions of x and y.
    E = Ric + 3 lam^2 g over the chart, ricci_q = Ric(q2) over the surface.
    """
    v, u, x, y = coords = sp.symbols("v u x y", real=True)
    lam = sp.Symbol("lam", positive=True)
    F, K, a, b, c = (sp.Function(name)(x, y) for name in "FKabc")
    q = sp.Matrix([[a, b], [b, c]])
    qinv = q.inv()
    g = sp.zeros(4, 4)
    g[0, 0], g[0, 1], g[1, 0] = F, K, K
    g[2:, 2:] = q
    ginv = sp.zeros(4, 4)
    ginv[0, 1] = ginv[1, 0] = 1 / K
    ginv[1, 1] = -F / K**2
    ginv[2:, 2:] = qinv
    return types.SimpleNamespace(
        coords=coords, lam=lam, F=F, K=K, q=q, qinv=qinv, g=g, ginv=ginv,
        E=ricci(g, ginv, coords) + 3 * lam**2 * g,
        ricci_q=ricci(q, qinv, (x, y)),
        gamma_q=christoffel(q, qinv, (x, y)),
    )

