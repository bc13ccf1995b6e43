"""Exact second-order jets of one-point callbacks, one call per block of points.

A callback written for one point, such as ``lambda s: 1.0 / s[1] ** 2``,
is called once with a JetPoint, the tuple of the coordinate jets over
every point of the block: ``s[i]`` is coordinate i's, and a slice ``s[1:]``
is a tuple of them.  The callback's arithmetic carries value, gradient
and Hessian along exactly (forward mode with hyper-dual numbers:
Fike and Alonso, AIAA 2011-886; Griewank and Walther, Evaluating
Derivatives, ch. 13).  A Jet serves the operators + - * / ** and the
ufuncs in _RULES; anything else raises TypeError, and so does turning a
jet into a number or testing its value.  numpy holds jets in object
arrays, so ``np.asarray(s)`` and ``np.array([[s[0], 0.0], [0.0, s[1]]])``
are arrays of jets, whose operators act entry by entry; jet() builds
such a result part by part.  For a callback that does anything else,
jet() raises ValueError naming the operation.

A jet's parts are (value, gradient, Hessian) up to its order.  Part k has
shape (N,) + (d,) * k + the value's shape, N the block's points; a
derivative part may hold 1 in the point axis or a value axis where it is
constant along it, and is None where it is zero.  A constant operand is
one part, its value, with a unit point axis (none for a number).
"""
from __future__ import annotations

import numbers

import numpy as np


def _up(f, k):
    """A value-shaped f with k derivative axes inserted after its point axis."""
    return f.reshape(f.shape[:1] + (1,) * k + f.shape[1:]) if f.ndim else f


def _times(f, part, k):
    """f times part k; None (zero) stays None."""
    return None if part is None else _up(f, k) * part


def _add(a, b):
    if a is None or b is None:
        return a if b is None else b
    return a + b


def _sub(a, b):
    if b is None:
        return a
    return -b if a is None else a - b


def _div(part, f, k):
    return None if part is None else part / _up(f, k)


def _square(p):
    """p_i p_j over the two derivative axes of a gradient part."""
    return None if p is None else p[:, :, None] * p[:, None, :]


def _cross(p, q):
    """p_i q_j + q_i p_j: symmetric in the two derivative axes, bit for bit."""
    if p is None or q is None:
        return None
    outer = p[:, :, None] * q[:, None, :]
    return outer + outer.swapaxes(1, 2)


def _chain(a, f0, derivs):
    """The jet of f(a) from f's value f0 at a's value and derivs() = (f', f'')."""
    if len(a) == 1:
        return (f0,)
    f1, f2 = derivs()
    out = (f0, _times(f1, a[1], 1))
    if len(a) == 2:
        return out
    return out + (_add(_times(f1, a[2], 2), _times(f2, _square(a[1]), 2)),)


def _linear(combine):
    """The rule of add or subtract: partwise, a constant's derivatives being zero."""
    def rule(ufunc, a, b):
        return (ufunc(a[0], b[0]),) + tuple(map(combine, a[1:], b[1:]))
    return rule


def _multiply(ufunc, a, b):
    c = (ufunc(a[0], b[0]),)
    if len(a) > 1:
        c += (_add(_times(b[0], a[1], 1), _times(a[0], b[1], 1)),)
    if len(a) > 2:
        c += (_add(_add(_times(b[0], a[2], 2), _cross(a[1], b[1])), _times(a[0], b[2], 2)),)
    return c


def _divide(ufunc, a, b):
    # from a = q b: q' = (a' - q b') / b and q'' = (a'' - q' b' - b' q' - q b'') / b
    q = (ufunc(a[0], b[0]),)
    if len(a) > 1:
        q += (_div(_sub(a[1], _times(q[0], b[1], 1)), b[0], 1),)
    if len(a) > 2:
        q += (_div(_sub(_sub(a[2], _cross(q[1], b[1])), _times(q[0], b[2], 2)), b[0], 2),)
    return q


def _power(ufunc, a, b):
    """a ** p, p a constant scalar: p a^(p - 1) and p (p - 1) a^(p - 2), or 0 where p makes them.

    p is passed to numpy as a float, so power's fast paths for p = 2 and
    the like are taken for every block size alike.
    """
    if b[0].size != 1:
        return NotImplemented
    p = float(b[0].reshape(()))

    def derivs():
        d1 = p * np.power(a[0], p - 1.0) if p else np.zeros_like(a[0])
        d2 = p * (p - 1.0) * np.power(a[0], p - 2.0) if p * (p - 1.0) else np.zeros_like(a[0])
        return d1, d2

    return _chain(a, ufunc(a[0], p), derivs)


def _unary(derivs):
    """The rule of a one-argument ufunc whose derivs(value, f(value)) are (f', f'')."""
    def rule(ufunc, a):
        f0 = ufunc(a[0])
        return _chain(a, f0, lambda: derivs(a[0], f0))
    return rule


_RULES = {
    np.add: _linear(_add),
    np.subtract: _linear(_sub),
    np.negative: lambda ufunc, a: tuple(None if p is None else -p for p in a),
    np.positive: lambda ufunc, a: a,
    np.multiply: _multiply,
    np.divide: _divide,
    np.power: _power,
    np.float_power: _power,
    np.square: lambda ufunc, a: _multiply(np.multiply, a, a),
    np.sqrt: _unary(lambda v, f: (0.5 / f, -0.25 / (f * v))),
    np.exp: _unary(lambda v, f: (f, f)),
    np.log: _unary(lambda v, f: (1.0 / v, -1.0 / (v * v))),
    np.sin: _unary(lambda v, f: (np.cos(v), -f)),
    np.cos: _unary(lambda v, f: (-np.sin(v), -f)),
}


def _real(value):
    """value as an array if it is a real number or an array of them, else None."""
    if type(value) is float or type(value) is int:
        return np.asarray(value)
    if not isinstance(value, (numbers.Real, np.ndarray, np.generic)):
        return None
    value = np.asarray(value)
    return value if value.dtype.kind in "biuf" else None


def _apply(ufunc, inputs):
    """The jet of ufunc(*inputs), jets and real constants; NotImplemented where none is served."""
    rule = _RULES.get(ufunc)
    if rule is None or (rule is _power and (
            not isinstance(inputs[0], Jet) or isinstance(inputs[1], Jet))):
        return NotImplemented  # a power only of a jet, to a constant
    operands, orders = [], set()
    for operand in inputs:
        if isinstance(operand, Jet):
            parts = operand.parts
            orders.add(len(parts))
        else:
            value = _real(operand)
            if value is None:
                return NotImplemented
            parts = (value.reshape((1,) + value.shape) if value.ndim else value,)
        operands.append(parts)
    if len(orders) != 1:
        return NotImplemented
    order = orders.pop()
    # align the value axes: an operand of fewer takes unit axes after its point and derivative axes
    rank = max(parts[0].ndim for parts in operands)
    operands = [(parts if parts[0].ndim in (0, rank) else tuple(
        None if p is None else p.reshape(p.shape[:k + 1] + (1,) * (rank - parts[0].ndim)
                                         + p.shape[k + 1:])
        for k, p in enumerate(parts))) + (None,) * (order - len(parts)) for parts in operands]
    parts = rule(ufunc, *operands)
    return NotImplemented if parts is NotImplemented else Jet(parts)


class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """A quantity over a block of points with its partials up to second order.

    The mixin's operators call their ufuncs, and every ufunc reaches the
    rules through __array_ufunc__.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def __bool__(self):
        raise TypeError("a jet has no truth value")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        return _apply(ufunc, inputs)


class JetPoint(tuple):
    """One point of d coordinates as a callback sees it: the tuple of the coordinate jets.

    s[i] is coordinate i's jet, and a slice s[i:] a tuple of them.  It has
    len, iteration and shape (d,), as the point array of a plain call has;
    np.asarray(s) is the object array of its jets, and it has no number
    conversion.
    """

    __slots__ = ()

    def __new__(cls, x, order):
        """x: the block's (N, d) points; the jets carry partials up to order.

        Coordinate i has the unit gradient e_i, one row for every point, and no Hessian.
        """
        units = np.eye(x.shape[1])[:, None, :]
        return super().__new__(cls, (Jet((values, gradient, None)[:order + 1])
                                     for values, gradient in zip(x.T.copy(), units)))

    @property
    def shape(self):
        return (len(self),)


def _refused(what):
    return ValueError(f"the callback has no exact jet: {what}")


def _entry_parts(value, order):
    """The parts of a result or an array entry: a jet's, or a real constant's value alone."""
    if isinstance(value, Jet):
        return value.parts
    real = _real(value)
    if real is None:
        raise _refused(f"a {type(value).__name__} is neither a jet nor a real number")
    return (real.reshape((1,) + real.shape),) + (None,) * order


def jet(fn, x, order):
    """(value, gradient[, Hessian]) of the one-point callable fn at the (..., d) points x.

    One call of fn on a JetPoint of every point of x; the derivative axes
    follow the point axes.  fn returns a jet, a real constant, or an object
    array whose entries are jets of one value or real numbers, each entry a
    constant's where it is a number.  ValueError, naming the operation,
    when fn raises TypeError or AttributeError or returns anything else;
    any other exception propagates.
    """
    lead, flat = x.shape[:-1], x.reshape(-1, x.shape[-1])
    try:
        out = fn(JetPoint(flat, order))
    except (TypeError, AttributeError) as err:
        raise _refused(err) from err
    if isinstance(out, np.ndarray) and out.dtype == object:
        shape = out.shape
        entries = [(index, _entry_parts(value, order)) for index, value in np.ndenumerate(out)]
        if any(parts[0].ndim != 1 for _, parts in entries):
            raise _refused("an entry of its array is an array, not one value")
    else:
        parts = _entry_parts(out, order)
        # a jet's value is this call's own arithmetic on the points: it has every value axis
        shape, entries = parts[0].shape[1:], [((), parts)]
    n, d = flat.shape
    jets = []
    for k in range(order + 1):
        full = (n,) + (d,) * k + shape
        part = np.zeros(full)
        for index, parts in entries:
            if parts[k] is not None:
                part[(slice(None),) * (k + 1) + index] = parts[k]
        jets.append(part.reshape(lead + full[1:]))
    return tuple(jets)
