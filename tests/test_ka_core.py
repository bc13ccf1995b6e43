"""Multivector algebra tests against the slow blade oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin import _kernels
from kaspin.ka_core import (
    Multivector,
    Signature,
    contract,
    geometric_product,
    hodge_star,
    inner,
    ka_trace,
    pi,
    pi_tau,
    tau,
    volume_product,
    wedge,
)

from helpers import REP_SIGS, make_rng, random_multivector
from oracles import (
    blade_product,
    blade_wedge,
    indices_to_mask,
    mask_to_indices,
    metric_diag,
    slow_geometric_product,
    slow_wedge,
)


def _mv(p, q, coeffs):
    return Multivector(Signature(p, q), np.asarray(coeffs, dtype=float))


# ---------------------------------------------------------------------------
# products against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (2, 1), (3, 1), (2, 2)])
def test_geometric_product_matches_oracle_exhaustive_blades(p, q):
    sig = Signature(p, q)
    n = sig.n_blades
    for i in range(n):
        a = np.zeros(n)
        a[i] = 1.0
        for j in range(n):
            b = np.zeros(n)
            b[j] = 1.0
            got = geometric_product(_mv(p, q, a), _mv(p, q, b)).coeffs
            want = slow_geometric_product(p, q, a, b)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("p,q", [(4, 2), (3, 3), (4, 4), (5, 3)])
def test_geometric_product_matches_oracle_random(p, q):
    sig = Signature(p, q)
    rng = make_rng(101, stream=p * 10 + q)
    for _ in range(20):
        a = rng.standard_normal(sig.n_blades)
        b = rng.standard_normal(sig.n_blades)
        got = geometric_product(_mv(p, q, a), _mv(p, q, b)).coeffs
        want = slow_geometric_product(p, q, a, b)
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("p,q", [(2, 0), (3, 1), (2, 2), (4, 4)])
def test_wedge_matches_oracle_random(p, q):
    sig = Signature(p, q)
    rng = make_rng(102, stream=p * 10 + q)
    for _ in range(10):
        a = rng.standard_normal(sig.n_blades)
        b = rng.standard_normal(sig.n_blades)
        got = wedge(_mv(p, q, a), _mv(p, q, b)).coeffs
        want = slow_wedge(p, q, a, b)
        np.testing.assert_allclose(got, want, atol=1e-12)


ALL_SIGS_UP_TO_6 = [(p, d - p) for d in range(1, 7) for p in range(d + 1)]


@pytest.mark.parametrize("p,q", ALL_SIGS_UP_TO_6)
def test_tables_match_blade_oracle(p, q):
    t = _kernels.get_tables(p, q)
    diag = metric_diag(p, q)
    n = 1 << (p + q)
    for i in range(n):
        ii = mask_to_indices(i)
        g = len(ii)
        assert t.grade[i] == g
        assert t.metric[i] == math.prod(diag[j] for j in ii)
        assert t.pi[i] == (-1) ** g
        assert t.tau[i] == (-1) ** (g * (g - 1) // 2)
        assert t.pi_tau[i] == (-1) ** (g * (g + 1) // 2)
        for k in range(n):
            assert t.xor[i, k] == i ^ k
            jj = mask_to_indices(i ^ k)
            coeff, out = blade_product(ii, jj, diag)
            assert indices_to_mask(out) == k
            assert t.sign[i, k] == coeff
            coeff, out = blade_wedge(ii, jj)
            assert t.wedge_sign[i, k] == coeff
            if coeff:
                assert indices_to_mask(out) == k
    assert not any(arr.flags.writeable for arr in t)


@st.composite
def _operand_pair(draw):
    p, q = draw(st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 3), (2, 2)]))
    n = 1 << (p + q)
    coeffs = st.lists(st.floats(-4, 4, allow_nan=False), min_size=n, max_size=n)
    return p, q, np.array(draw(coeffs)), np.array(draw(coeffs))


@settings(max_examples=60, deadline=None)
@given(_operand_pair())
def test_products_match_slow_oracle(case):
    p, q, a, b = case
    got = geometric_product(_mv(p, q, a), _mv(p, q, b)).coeffs
    np.testing.assert_allclose(got, slow_geometric_product(p, q, a, b), rtol=0, atol=1e-12)
    got = wedge(_mv(p, q, a), _mv(p, q, b)).coeffs
    np.testing.assert_allclose(got, slow_wedge(p, q, a, b), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "p,q", [(2, 0), (1, 1), (2, 1), (3, 1), (2, 2), (4, 3), (4, 4), (5, 3), (8, 0), (0, 8)]
)
def test_stacked_operands_give_row_wise_products(p, q):
    sig = Signature(p, q)
    t = sig.tables()
    rng = make_rng(110, stream=p * 10 + q)
    rows = rng.standard_normal((5, sig.n_blades))
    a = random_multivector(sig, rng)
    stacked_gp = _kernels.product(rows, a.coeffs, t.sign, t.xor)
    stacked_wedge = _kernels.product(rows, a.coeffs, t.wedge_sign, t.xor)
    for k, x in enumerate(rows):
        xm = Multivector(sig, x)
        np.testing.assert_allclose(stacked_gp[k], geometric_product(xm, a).coeffs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked_wedge[k], wedge(xm, a).coeffs, rtol=0, atol=1e-12)


ALL_SIGS_UP_TO_8 = [(p, d - p) for d in range(1, 9) for p in range(d + 1)]
SPLIT_SIGS = [(p, q) for p, q in ALL_SIGS_UP_TO_8 if p + q >= _kernels.SPLIT_MIN_DIM]
TABLES = ("sign", "wedge_sign")


@st.composite
def _sparse_split_operands(draw):
    # the oracle multiplies blade by blade, so the operands stay sparse
    p, q = draw(st.sampled_from(SPLIT_SIGS))
    n = 1 << (p + q)
    sparse = st.dictionaries(st.integers(0, n - 1), st.floats(-1e3, 1e3, allow_nan=False),
                             max_size=8)
    a, b = np.zeros(n), np.zeros(n)
    for out, entries in ((a, draw(sparse)), (b, draw(sparse))):
        out[list(entries)] = list(entries.values())
    return p, q, a, b


@settings(max_examples=40, deadline=None)
@given(_sparse_split_operands())
def test_split_kernel_matches_slow_oracle(case):
    p, q, a, b = case
    atol = 1e-13 * max(1.0, np.max(np.abs(a)) * np.max(np.abs(b)))
    for table, oracle in (("sign", slow_geometric_product), ("wedge_sign", slow_wedge)):
        got = _kernels.split_product(a, b, _kernels.split_plan(p, q, table))
        np.testing.assert_allclose(got, oracle(p, q, a, b), rtol=0, atol=atol)


@pytest.mark.parametrize("p,q", ALL_SIGS_UP_TO_8)
def test_forced_split_kernel_matches_flat_kernel(p, q):
    # d = 1 has no high bits: the split is Cl(lo) alone
    t = _kernels.get_tables(p, q)
    rng = make_rng(116, stream=p * 10 + q)
    a, b = rng.standard_normal((2, t.xor.shape[0]))
    rows = rng.standard_normal((3, t.xor.shape[0]))
    for table in TABLES:
        plan = _kernels.split_plan(p, q, table)
        for left in (a, rows):
            want = _kernels.product(left, b, getattr(t, table), t.xor)
            np.testing.assert_allclose(_kernels.split_product(left, b, plan), want, rtol=0,
                                       atol=1e-12)


@pytest.mark.parametrize("p,q", [(4, 3), (0, 7), (4, 4), (0, 8)])
def test_generator_times_blade_is_bit_identical_in_both_kernels(p, q):
    # exact sign products: every output is a sign, 0.0 or -0.0, in both kernels
    t = _kernels.get_tables(p, q)
    blades = np.eye(t.xor.shape[0])
    for table in TABLES:
        plan = _kernels.split_plan(p, q, table)
        for i in range(p + q):
            for blade in blades:
                split = _kernels.split_product(blades[1 << i], blade, plan)
                flat = _kernels.product(blades[1 << i], blade, getattr(t, table), t.xor)
                assert split.tobytes() == flat.tobytes(), (table, i)


def test_multiply_takes_the_split_kernel_for_one_left_operand_from_d7(monkeypatch):
    taken = []

    def counted(name, real):
        def kernel(*args):
            taken.append(name)
            return real(*args)
        return kernel

    for name in ("product", "split_product"):
        monkeypatch.setattr(_kernels, name, counted(name, getattr(_kernels, name)))
    for p, q in [(3, 3), (4, 3), (4, 4)]:
        sig = Signature(p, q)
        a = Multivector.scalar(sig, 2.0)
        geometric_product(a, a)
        wedge(a, a)
        _kernels.multiply(np.eye(sig.n_blades)[:2], a.coeffs, p, q, "sign")
        assert _kernels.kernel_name(sig.d) == ("flat" if sig.d < 7 else "split")
    # the kernel depends on d alone: a stacked left operand takes the same one
    assert taken == ["product"] * 3 + ["split_product"] * 6


@pytest.mark.parametrize("p,q", ALL_SIGS_UP_TO_8)
def test_volume_products_equal_the_flat_kernel(p, q):
    # nu <> a and *a read one cached sign vector; the values are the dense product's
    sig = Signature(p, q)
    t = sig.tables()
    a = random_multivector(sig, make_rng(117, stream=p * 10 + q))
    nu = Multivector.volume(sig).coeffs
    assert np.array_equal(volume_product(a).coeffs, _kernels.product(nu, a.coeffs, t.sign, t.xor))
    if sig.d % 2 == 0:
        want = _kernels.product(tau(a).coeffs, nu, t.sign, t.xor)
        assert np.array_equal(hodge_star(a).coeffs, want)


# ---------------------------------------------------------------------------
# algebra laws
# ---------------------------------------------------------------------------


def test_basis_cases_from_contract_and_wedge():
    # e1 ^ e2 = e1^e2, e1 ^ e1 = 0, (e1+e2) ^ e2 = e1^e2
    sig = Signature(2, 0)
    e1 = Multivector.basis(sig, (1,))
    e2 = Multivector.basis(sig, (2,))
    e12 = Multivector.basis(sig, (1, 2))
    assert wedge(e1, e2).allclose(e12)
    assert wedge(e1, e1).allclose(Multivector.zero(sig))
    assert wedge(e1 + e2, e2).allclose(e12)
    # contraction with an orthonormal covector
    assert contract(e1, e12).allclose(e2)
    assert contract(e1, e2).allclose(Multivector.zero(sig))
    sig11 = Signature(1, 1)
    t = Multivector.basis(sig11, (2,))
    assert contract(t, t).allclose(Multivector.scalar(sig11, -1.0))


def test_clifford_relation_on_basis_covectors():
    for p, q in REP_SIGS:
        sig = Signature(p, q)
        for i in range(1, sig.d + 1):
            e = Multivector.basis(sig, (i,))
            sq = geometric_product(e, e)
            want = Multivector.scalar(sig, 1.0 if i <= p else -1.0)
            assert sq.allclose(want, tol=0.0)


def test_clifford_relation_on_random_one_forms():
    for p, q in REP_SIGS:
        sig = Signature(p, q)
        rng = make_rng(104, stream=p * 10 + q)
        for _ in range(20):
            theta = random_multivector(sig, rng, grade=1)
            sq = geometric_product(theta, theta)
            want = Multivector.scalar(sig, inner(theta, theta))
            assert np.max(np.abs((sq - want).coeffs)) <= 1e-12 * max(
                1.0, np.max(np.abs(theta.coeffs)) ** 2
            )


def test_associativity_random_triples():
    for p, q in REP_SIGS:
        sig = Signature(p, q)
        rng = make_rng(105, stream=p * 10 + q)
        for _ in range(25):
            a = random_multivector(sig, rng)
            b = random_multivector(sig, rng)
            c = random_multivector(sig, rng)
            left = geometric_product(geometric_product(a, b), c)
            right = geometric_product(a, geometric_product(b, c))
            scale = max(1.0, np.max(np.abs(left.coeffs)))
            assert np.max(np.abs((left - right).coeffs)) <= 1e-9 * scale


def test_unital():
    sig = Signature(3, 1)
    rng = make_rng(106)
    a = random_multivector(sig, rng)
    one = Multivector.scalar(sig, 1.0)
    assert geometric_product(one, a).allclose(a)
    assert geometric_product(a, one).allclose(a)


def test_left_multiplication_splits_into_wedge_plus_contraction():
    # theta <> a = theta ^ a + i_theta a for one-forms theta
    sig = Signature(2, 2)
    rng = make_rng(107)
    for _ in range(10):
        theta = random_multivector(sig, rng, grade=1)
        a = random_multivector(sig, rng)
        total = geometric_product(theta, a)
        split = wedge(theta, a) + contract(theta, a)
        assert total.allclose(split, tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-4, 4, allow_nan=False), min_size=4, max_size=4),
    st.lists(st.floats(-4, 4, allow_nan=False), min_size=4, max_size=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_wedge_graded_commutativity(ca, cb, ka, kb):
    # homogeneous inputs of grade ka, kb in (3, 1)
    sig = Signature(3, 1)
    rng = np.random.default_rng(1)
    a = np.zeros(16)
    b = np.zeros(16)
    masks_a = [m for m in range(16) if bin(m).count("1") == ka]
    masks_b = [m for m in range(16) if bin(m).count("1") == kb]
    for coeff, m in zip(ca, masks_a):
        a[m] = coeff
    for coeff, m in zip(cb, masks_b):
        b[m] = coeff
    mva, mvb = _mv(3, 1, a), _mv(3, 1, b)
    lhs = wedge(mva, mvb)
    rhs = (-1.0) ** (ka * kb) * wedge(mvb, mva)
    assert lhs.allclose(rhs, tol=1e-12)


# ---------------------------------------------------------------------------
# involutions, trace, Hodge star
# ---------------------------------------------------------------------------


def test_involution_signs_on_low_grades():
    sig = Signature(3, 1)
    e12 = Multivector.basis(sig, (1, 2))
    e1 = Multivector.basis(sig, (1,))
    assert pi(e12).allclose(e12)
    assert tau(e12).allclose(-1.0 * e12)
    assert pi(e1).allclose(-1.0 * e1)
    assert tau(e1).allclose(e1)
    assert pi_tau(e1).allclose(-1.0 * e1)


def test_pi_is_automorphism_tau_antiautomorphism():
    sig = Signature(2, 2)
    rng = make_rng(108)
    for _ in range(20):
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        ab = geometric_product(a, b)
        assert pi(ab).allclose(geometric_product(pi(a), pi(b)), tol=1e-12)
        assert tau(ab).allclose(geometric_product(tau(b), tau(a)), tol=1e-12)
        # pi o tau is again an anti-automorphism
        assert pi_tau(ab).allclose(
            geometric_product(pi_tau(b), pi_tau(a)), tol=1e-12
        )
        assert pi(tau(a)).allclose(tau(pi(a)), tol=0.0)


def test_ka_trace_values_and_cyclicity():
    sig = Signature(3, 1)
    assert ka_trace(Multivector.scalar(sig, 1.0)) == 4.0
    assert ka_trace(Multivector.basis(sig, (1,))) == 0.0
    rng = make_rng(109)
    for _ in range(20):
        a = random_multivector(sig, rng)
        b = random_multivector(sig, rng)
        ab = ka_trace(geometric_product(a, b))
        ba = ka_trace(geometric_product(b, a))
        assert abs(ab - ba) <= 1e-10 * max(1.0, abs(ab))


def test_hodge_star_frozen_values():
    sig = Signature(3, 1)
    one = Multivector.scalar(sig, 1.0)
    nu = Multivector.volume(sig)
    assert hodge_star(one).allclose(nu, tol=0.0)
    # oracle value: tau(nu)<>nu in (3,1) is (-1)^q = -1
    assert hodge_star(nu).allclose(Multivector.scalar(sig, -1.0), tol=0.0)


def test_hodge_star_squares_to_identity_on_22_two_forms():
    sig = Signature(2, 2)
    for m in range(16):
        if bin(m).count("1") != 2:
            continue
        a = np.zeros(16)
        a[m] = 1.0
        mv = _mv(2, 2, a)
        assert hodge_star(hodge_star(mv)).allclose(mv, tol=0.0)


def test_volume_form_product_identities():
    # a<>nu = *tau(a) and nu<>a = *(pi o tau)(a), coefficientwise
    for p, q in [(2, 0), (1, 1), (3, 1), (2, 2), (3, 3)]:
        sig = Signature(p, q)
        nu = Multivector.volume(sig)
        rng = make_rng(110, stream=p * 10 + q)
        for _ in range(10):
            a = random_multivector(sig, rng)
            left = geometric_product(a, nu)
            assert left.allclose(hodge_star(tau(a)), tol=1e-12)
            right = geometric_product(nu, a)
            assert right.allclose(hodge_star(pi_tau(a)), tol=1e-12)


def test_form_metric_diagonal():
    sig = Signature(3, 1)
    metric = sig.tables().metric
    assert metric[0] == 1.0
    assert metric[-1] == (-1.0) ** sig.q
    e14 = Multivector.basis(sig, (1, 4))
    assert inner(e14, e14) == -1.0
    with pytest.raises(ValueError, match="signature mismatch"):
        inner(e14, Multivector.basis(Signature(2, 2), (1, 4)))


# ---------------------------------------------------------------------------
# construction guards and serialization
# ---------------------------------------------------------------------------


def test_signature_guards():
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(5, 4)
    with pytest.raises(ValueError):
        Signature(-1, 2)


def test_signature_mismatch_rejected():
    a = Multivector.scalar(Signature(3, 1), 1.0)
    b = Multivector.scalar(Signature(2, 2), 1.0)
    for op in (wedge, geometric_product):
        with pytest.raises(ValueError):
            op(a, b)
    # equal coefficients of different signatures are not close
    assert not a.allclose(b) and not b.allclose(a)


def test_contract_requires_one_form():
    sig = Signature(3, 1)
    with pytest.raises(ValueError):
        contract(Multivector.basis(sig, (1, 2)), Multivector.scalar(sig, 1.0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Multivector.basis(Signature(3, 1), (2, 1)), "ascending in 1..4",
                 id="basis-descending"),
    pytest.param(lambda: Multivector.basis(Signature(3, 1), (1, 5)), "ascending in 1..4",
                 id="basis-past-d"),
    pytest.param(lambda: Multivector.basis(Signature(3, 1), (0,)), "ascending in 1..4",
                 id="basis-zero"),
    pytest.param(lambda: Multivector.covector(Signature(3, 1), [1.0, 0.0, 0.0]),
                 "expected 4 components", id="covector-length"),
    pytest.param(lambda: ka_trace(Multivector.scalar(Signature(2, 1), 1.0)),
                 "requires even dimension", id="trace-odd-d"),
    pytest.param(lambda: hodge_star(Multivector.scalar(Signature(2, 1), 1.0)),
                 "even dimension only", id="hodge-star-odd-d"),
])
def test_index_length_and_dimension_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_grade_projection():
    sig = Signature(2, 2)
    rng = make_rng(111)
    a = random_multivector(sig, rng)
    total = Multivector.zero(sig)
    for k in range(sig.d + 1):
        part = a.grade(k)
        for m in range(sig.n_blades):
            if bin(m).count("1") != k:
                assert part.coeffs[m] == 0.0
        total = total + part
    assert total.allclose(a, tol=0.0)


def test_json_round_trip_bit_exact():
    sig = Signature(3, 1)
    rng = make_rng(112)
    coeffs = rng.standard_normal(16)
    coeffs[3] = 0.0
    coeffs[7] = -0.0
    coeffs[11] = 1.0 / 3.0
    mv = Multivector(sig, coeffs)
    text = mv.to_json()
    back = Multivector.from_json(text)
    assert back.sig == sig
    assert all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(back.coeffs, mv.coeffs)
    )
    payload = json.loads(text)
    assert payload["p"] == 3 and payload["q"] == 1
    assert "" not in payload["coeffs"] or payload["coeffs"][""] != 0.0


def test_json_schema_example():
    text = '{"p": 3, "q": 1, "coeffs": {"": 1.0, "1": 2.0, "1,3": -0.5}}'
    mv = Multivector.from_json(text)
    assert mv.coeffs[0] == 1.0
    assert mv.coeffs[0b0001] == 2.0
    assert mv.coeffs[0b0101] == -0.5
    again = Multivector.from_json(mv.to_json())
    assert again.allclose(mv, tol=0.0)


def test_json_rejects_bad_keys():
    with pytest.raises(ValueError):
        Multivector.from_json('{"p": 3, "q": 1, "coeffs": {"3,1": 1.0}}')
    with pytest.raises(ValueError):
        Multivector.from_json('{"p": 3, "q": 1, "coeffs": {"5": 1.0}}')


# each blade has one spelling, the one to_json writes; int() used to accept the rest
NONCANONICAL_KEYS = [" 1", "1 ", "+1", "01", "1, 4", "4,1", "1,1", "1,", ",", "1,,4", "\u0661", "1_0"]


@pytest.mark.parametrize("key", NONCANONICAL_KEYS)
def test_json_rejects_noncanonical_keys(key):
    with pytest.raises(ValueError, match="bad basis key"):
        Multivector.from_json(json.dumps({"p": 3, "q": 1, "coeffs": {key: 1.0}}))


@pytest.mark.parametrize("key", [1, None, (1,), 1.0])
def test_json_rejects_a_key_that_is_not_a_string(key):
    # a dict payload can carry any hashable key; only the canonical strings name blades
    with pytest.raises(ValueError, match="bad basis key"):
        Multivector.from_json({"p": 3, "q": 1, "coeffs": {key: 1.0}})


def test_json_keys_round_trip_every_blade():
    from kaspin.ka_core import MAX_DIM, _blade_keys, _key_mask

    keys = _blade_keys()[0]
    for d in range(MAX_DIM + 1):
        for mask in range(1 << d):
            assert _key_mask(keys[mask], d) == mask


def test_operations_keep_coefficients_finite():
    sig = Signature(4, 4)
    rng = make_rng(113)
    a = random_multivector(sig, rng)
    b = random_multivector(sig, rng)
    for mv in (
        geometric_product(a, b),
        wedge(a, b),
        hodge_star(a),
        pi(a),
        tau(a),
    ):
        assert np.all(np.isfinite(mv.coeffs))
