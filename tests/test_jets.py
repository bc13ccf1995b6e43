"""Exact jets of one-point callbacks against differences, closed forms and their refusals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin import _jets, geometry_lab
from kaspin.geometry_lab import preset
from oracles import _fd_jacobian, _fd_second, pointwise

EPS = np.finfo(float).eps


def same_bits(got, want):
    return len(got) == len(want) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# random ufunc expressions against centered differences
# ---------------------------------------------------------------------------

# each builds a bounded, smooth function of its operands on [-1.5, 1.5]^d
UNARY = {
    "neg": lambda a: -a,
    "sin": np.sin,
    "cos": np.cos,
    "exp": lambda a: np.exp(np.sin(a)),
    "sqrt": lambda a: np.sqrt(2.0 + np.cos(a)),
    "log": lambda a: np.log(2.0 + np.sin(a)),
    "square": lambda a: np.square(np.sin(a)),
    "cube": lambda a: (1.5 + np.sin(a)) ** 3,
    "inverse": lambda a: (1.5 + np.cos(a)) ** -2,
    "root": lambda a: (1.5 + np.sin(a)) ** 0.5,
}
BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (2.5 + np.cos(b)),
    "rdiv": lambda a, b: 1.5 / (2.5 + np.sin(a * b)),
}


def expressions(d):
    leaves = st.one_of(st.tuples(st.just("x"), st.integers(0, d - 1)),
                       st.tuples(st.just("c"), st.floats(-2.0, 2.0)))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(st.sampled_from(sorted(UNARY)), inner),
        st.tuples(st.sampled_from(sorted(BINARY)), inner, inner)), max_leaves=6)


def evaluate(tree, s):
    """The expression at the one point s: a point array or a jet point."""
    op, *args = tree
    if op == "x":
        return s[args[0]]
    if op == "c":
        return args[0]
    if op in UNARY:
        return UNARY[op](evaluate(args[0], s))
    return BINARY[op](evaluate(args[0], s), evaluate(args[1], s))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 4]), n=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_jets_of_ufunc_expressions_match_differences(data, d, n, seed):
    tree = data.draw(expressions(d))
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, d))

    def fn(s):
        return evaluate(tree, s) + 0.0 * s[0]  # a constant expression still varies with s

    jet = _jets.jet(fn, x, 2)
    lifted = pointwise(fn)
    fd = (lifted(x), _fd_jacobian(lifted, x), _fd_second(lifted, x))
    assert [a.shape for a in jet] == [a.shape for a in fd]
    np.testing.assert_allclose(jet[0], fd[0], rtol=64 * EPS, atol=64 * EPS)
    # differences with h = 1e-5 (1 + |x|): roundoff eps |f| / h and eps |f| / h^2, truncation
    # h^2 |f'''| / 6 and h^2 |f''''| / 12, over these bounded, smooth expressions
    scale = 1.0 + max(np.max(np.abs(part)) for part in jet)
    assert np.max(np.abs(jet[1] - fd[1])) <= 1e-7 * scale
    assert np.max(np.abs(jet[2] - fd[2])) <= 1e-4 * scale
    # the Hessian is symmetric bit for bit, as differences give it
    assert np.array_equal(jet[2], np.swapaxes(jet[2], -1, -2))


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(1e-2, 1e2), n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_jets_of_the_ads4_callbacks_are_its_closed_forms(lam, n, seed):
    ps = preset("ads4", {"lam": lam})
    s = np.random.default_rng(seed).uniform((-1.5, 0.3), (1.5, 3.0), size=(n, 2))
    c0 = 1.0 / lam**2
    for fn, field in ((lambda p: c0 / p[1] ** 2, ps.walker.K),
                      (lambda p: np.eye(2) / (lam * p[1]) ** 2, ps.walker.q2)):
        for got, want in zip(_jets.jet(fn, s, 2), field.jet(s, 2)):
            # a few ulp, and exactly zero where the closed form is
            np.testing.assert_allclose(got, want, rtol=16 * EPS, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), order=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2**32 - 1))
def test_one_point_is_its_row_of_the_block(n, order, seed):
    def fn(s):
        return np.exp(np.sin(s[0])) * np.eye(2) / (1.5 + s[1] ** 2) - np.sqrt(2.0 + np.cos(s[1]))

    x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, 2))
    block = _jets.jet(fn, x, order)
    assert len(block) == order + 1
    for i in range(n):
        assert same_bits(_jets.jet(fn, x[i], order), tuple(part[i] for part in block))


# ---------------------------------------------------------------------------
# the jet point, array results and refusals
# ---------------------------------------------------------------------------


def test_a_jet_point_looks_like_one_point():
    x = np.array([[0.5, 1.0, 2.0], [1.5, 0.25, -1.0]])
    seen = []

    def fn(s):
        held = np.asarray(s)  # the object array of the coordinate jets themselves
        seen.append((len(s), s.shape, len(list(s)), held.dtype, held.shape))
        assert all(a is b for a, b in zip(held, s))
        return held.sum()

    value, grad = _jets.jet(fn, x, 1)
    assert seen == [(3, (3,), 3, np.dtype(object), (3,))]
    assert np.array_equal(value, x.sum(axis=-1)) and np.array_equal(grad, np.ones((2, 3)))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_sliced_jet_point_gives_exact_jets(order):
    # a slice is a tuple of the coordinate jets, and an entry of np.asarray(s) is one of them
    x = np.random.default_rng(5).uniform(0.5, 1.5, size=(6, 3))
    got = _jets.jet(lambda s: s[1:][0] ** 2, x, order)
    assert same_bits(got, _jets.jet(lambda s: s[1] ** 2, x, order))
    assert same_bits(geometry_lab.Field.from_callable(lambda s: s[1:][0] ** 2).jet(x, order), got)
    assert same_bits(_jets.jet(lambda s: np.asarray(s)[1] ** 2, x, order), got)
    assert same_bits(_jets.jet(lambda s: (np.asarray(s)[1:] ** 2)[0], x, order), got)


def test_a_constant_result_has_zero_derivatives():
    x = np.ones((4, 2))
    value, grad, hess = _jets.jet(lambda s: np.diag([1.0, -1.0]), x, 2)
    assert np.array_equal(value, np.broadcast_to(np.diag([1.0, -1.0]), (4, 2, 2)))
    assert not grad.any() and not hess.any()
    assert grad.shape == (4, 2, 2, 2) and hess.shape == (4, 2, 2, 2, 2)


def parts(value):
    """A jet's parts as comparable bits, None for a zero part."""
    assert isinstance(value, _jets.Jet)
    return [None if p is None else (p.dtype, p.shape, p.tobytes()) for p in value.parts]


# each operator form a callback writes, and the ufunc call it must equal bit for bit
OPERATOR_FORMS = {
    "s0 + c": (lambda s, c: s[0] + c, lambda s, c: np.add(s[0], c)),
    "c + s0": (lambda s, c: c + s[0], lambda s, c: np.add(c, s[0])),
    "c - s1": (lambda s, c: c - s[1], lambda s, c: np.subtract(c, s[1])),
    "s1 - c": (lambda s, c: s[1] - c, lambda s, c: np.subtract(s[1], c)),
    "c * s0": (lambda s, c: c * s[0], lambda s, c: np.multiply(c, s[0])),
    "s0 / c": (lambda s, c: s[0] / c, lambda s, c: np.divide(s[0], c)),
    "c / s1": (lambda s, c: c / s[1], lambda s, c: np.divide(c, s[1])),
    "s1 ** c": (lambda s, c: s[1] ** c, lambda s, c: np.power(s[1], c)),
    "-s0": (lambda s, c: -s[0], lambda s, c: np.negative(s[0])),
    "+s0": (lambda s, c: +s[0], lambda s, c: np.positive(s[0])),
}


@pytest.mark.parametrize("c", [1.5, 3, np.float64(-0.75)], ids=["float", "int", "float64"])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("form", sorted(OPERATOR_FORMS))
def test_each_operator_is_its_ufunc_bit_for_bit(form, order, c):
    written, ufunc = OPERATOR_FORMS[form]
    s = _jets.JetPoint(np.random.default_rng(3).uniform(0.5, 1.5, size=(5, 2)), order)
    assert parts(written(s, c)) == parts(ufunc(s, c))


def refused(fn, x, order, names):
    """fn's jet at x raises ValueError whose message names the refused operation."""
    with pytest.raises(ValueError, match="the callback has no exact jet") as info:
        _jets.jet(fn, x, order)
    assert names in str(info.value), str(info.value)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("fn, names", [
    (lambda s: 2.0 ** s[0], "<ufunc 'power'>"),
    (lambda s: abs(s[0]), "<ufunc 'absolute'>"),
    (lambda s: s[1] > 0, "<ufunc 'greater'>"),
], ids=["c ** s0", "abs(s0)", "s1 > 0"])
def test_operators_without_a_rule_fall_back(fn, names, order):
    # no exact rule and nothing to fall back on: the jet refuses, naming the operator's ufunc
    refused(fn, np.ones((3, 2)), order, names)


def branching(s):
    return s[1] ** 2 if s[1] > 0 else -s[1]


# each callback with no exact rule, and what its refusal names
OPAQUE = {
    "math.exp": (lambda s: math.exp(s[0]) * s[1], "must be real number, not Jet"),
    "a branch on a value": (branching, "<ufunc 'greater'>"),
    "float()": (lambda s: float(s[1]) ** 3, "float() argument"),
    "an attribute": (lambda s: s.sum(), "no attribute 'sum'"),
    "a list result": (lambda s: [s[0] * s[1], 1.0], "a list is neither a jet nor a real number"),
    "a jet exponent": (lambda s: s[0] ** s[1], "<ufunc 'power'>"),
    "an unserved ufunc": (lambda s: np.tanh(s[0]), "<ufunc 'tanh'>"),
    "an array exponent": (lambda s: s[0] ** np.array([1.0, 2.0]), "<ufunc 'power'>"),
    "a complex constant": (lambda s: (s[0] * 1j).imag, "'complex'"),
    "a truth test": (lambda s: s[0] if s[1] else -s[0], "a jet has no truth value"),
    "a ufunc method": (lambda s: np.add.reduce(s[0]), "'reduce'"),
    "a ufunc of an array": (lambda s: np.sin(np.asarray(s)), "no callable sin method"),
    "an array times a jet": (lambda s: np.array([s[0]]) * s[1], "<ufunc 'multiply'>"),
    "an array entry": (lambda s: np.array([s[0] * np.ones(2), 0.0], dtype=object),
                       "an entry of its array is an array, not one value"),
}


def stacked(entries, x, order):
    """The jets of one-point callbacks stacked along one value axis, as an array result's."""
    return tuple(np.stack(parts, axis=-1) for parts in zip(*(_jets.jet(fn, x, order)
                                                             for fn in entries)))


# each array result, and the same callback written entry by entry on scalar jets
ARRAY_RESULTS = {
    "np.asarray": (lambda s: np.asarray(s) ** 2, lambda x, order: stacked(
        [lambda s: s[0] ** 2, lambda s: s[1] ** 2], x, order)),
    "an array of jets": (lambda s: np.array([[s[0], 0.0], [0.0, s[1]]]), lambda x, order: tuple(
        part.reshape(part.shape[:-1] + (2, 2)) for part in stacked(
            [lambda s: s[0], lambda s: 0.0, lambda s: 0.0, lambda s: s[1]], x, order))),
}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(OPAQUE) + sorted(ARRAY_RESULTS))
def test_opaque_callables_fall_back_to_differences_bit_for_bit(name, order):
    # an array result gets exact jets, bit for bit those of its entries written on scalar jets;
    # every other case has no exact rule and is refused by the jet and the Field alike
    x = np.random.default_rng(7).uniform(0.5, 1.5, size=(5, 2))
    if name in ARRAY_RESULTS:
        fn, entrywise = ARRAY_RESULTS[name]
        got = _jets.jet(fn, x, order)
        assert same_bits(got, entrywise(x, order))
        assert same_bits(geometry_lab.Field.from_callable(fn).jet(x, order), got)
        return
    fn, names = OPAQUE[name]
    refused(fn, x, order, names)
    with pytest.raises(ValueError, match="the callback has no exact jet"):
        geometry_lab.Field.from_callable(fn).jet(x, order)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.sampled_from([2, 4]), n=st.integers(1, 5),
       order=st.sampled_from([0, 1, 2]), c=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_an_array_result_gets_the_jets_of_its_entries_bit_for_bit(data, d, n, order, c, seed):
    # np.array([e1, 0.0, e2, c]): each expression entry the bits of its own scalar callback,
    # whether it is a jet or a number, and each constant entry its value with zero derivatives
    e1, e2 = data.draw(expressions(d)), data.draw(expressions(d))
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, d))
    got = _jets.jet(lambda s: np.array([evaluate(e1, s), 0.0, evaluate(e2, s), c]), x, order)
    assert [part.shape for part in got] == [(n,) + (d,) * k + (4,) for k in range(order + 1)]
    for entry, tree in ((0, e1), (2, e2)):
        want = _jets.jet(lambda s: evaluate(tree, s), x, order)
        assert same_bits(tuple(part[..., entry].copy() for part in got), want)
    for entry, value in ((1, 0.0), (3, c)):
        assert same_bits((got[0][..., entry].copy(),), (np.full(n, value),))
        assert not any(part[..., entry].any() for part in got[1:])


def test_jets_of_different_orders_do_not_combine():
    # no callback can make one (all coordinates of a jet point share its order), so _apply itself
    x = np.ones(3)
    value, slope = _jets.Jet((x,)), _jets.Jet((x, np.ones((3, 1))))
    assert _jets._apply(np.add, (value, slope)) is NotImplemented
    assert _jets._apply(np.multiply, (slope, value)) is NotImplemented


def test_other_exceptions_propagate():
    def boom(s):
        raise RuntimeError("boom")

    def domain(s):
        return np.sqrt(s[0])

    with pytest.raises(RuntimeError, match="boom"):
        geometry_lab.Field.from_callable(boom).jet(np.ones((3, 2)), 2)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        geometry_lab.Field.from_callable(domain).jet(-np.ones((3, 2)), 1)
