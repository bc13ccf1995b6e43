"""Representation construction, quantization, and pairing tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin.clifford_rep import (
    PAIRING_SYMMETRY,
    GammaRep,
    PairedRep,
    Spinor,
    build_pairings,
    build_rep,
    dequantize,
    quantize,
    s_transpose,
)
from kaspin.ka_core import (
    Multivector,
    Signature,
    geometric_product,
    ka_trace,
    pi_tau,
    tau,
)
from kaspin.rng import make_rng, random_multivector

from oracles import blade_matrices, einsum_dequantize

REP_SIGS = [(2, 0), (1, 1), (3, 1), (2, 2), (4, 2), (3, 3), (4, 4), (5, 3)]

# (sigma_plus, sigma_minus) frozen from the k = d/2 mod 4 symmetry table
EXPECTED_SYMMETRY = {
    (2, 0): (1, -1),
    (1, 1): (1, -1),
    (3, 1): (-1, -1),
    (2, 2): (-1, -1),
    (4, 2): (-1, 1),
    (3, 3): (-1, 1),
    (4, 4): (1, 1),
    (5, 3): (1, 1),
}


@pytest.fixture(scope="module")
def reps():
    return {pq: build_rep(Signature(*pq)) for pq in REP_SIGS}


@pytest.fixture(scope="module")
def paired(reps):
    return {pq: build_pairings(rep) for pq, rep in reps.items()}


# ---------------------------------------------------------------------------
# gamma matrices
# ---------------------------------------------------------------------------


def test_base_case_matrices():
    rep = build_rep(Signature(1, 1))
    np.testing.assert_array_equal(rep.gammas[0], [[0, 1], [1, 0]])
    np.testing.assert_array_equal(rep.gammas[1], [[0, 1], [-1, 0]])
    rep20 = build_rep(Signature(2, 0))
    np.testing.assert_array_equal(rep20.gammas[0] @ rep20.gammas[0], np.eye(2))
    np.testing.assert_array_equal(rep20.gammas[1] @ rep20.gammas[1], np.eye(2))


def test_anticommutation_exact(reps):
    for (p, q), rep in reps.items():
        d = p + q
        assert rep.N == 2 ** (d // 2)
        for i in range(d):
            gi = rep.gammas[i]
            assert set(np.unique(gi)) <= {-1, 0, 1}
            for j in range(d):
                gj = rep.gammas[j]
                anti = gi @ gj + gj @ gi
                want = np.zeros_like(anti)
                if i == j:
                    want = 2 * (1 if i < p else -1) * np.eye(rep.N, dtype=np.int64)
                np.testing.assert_array_equal(anti, want)


def test_blade_matrices_linearly_independent(reps):
    for (p, q), rep in reps.items():
        flat = blade_matrices(rep).reshape(rep.sig.n_blades, -1)
        assert np.linalg.matrix_rank(flat) == rep.sig.n_blades


def test_unsupported_signatures_rejected():
    for p, q in [(3, 0), (4, 0), (8, 0), (2, 4), (5, 5)]:
        with pytest.raises(ValueError):
            build_rep(Signature(p, q))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def test_quantize_basis_cases(reps):
    rep = reps[(3, 1)]
    sig = rep.sig
    np.testing.assert_array_equal(
        quantize(rep, Multivector.scalar(sig, 1.0)), np.eye(4)
    )
    np.testing.assert_array_equal(
        quantize(rep, Multivector.basis(sig, (1, 2))),
        (rep.gammas[0] @ rep.gammas[1]).astype(float),
    )


def test_quantize_is_bit_identical_to_tensordot(reps):
    for (p, q), rep in reps.items():
        sig = rep.sig
        rng = make_rng(205, stream=p * 10 + q)
        for _ in range(20):
            coeffs = rng.standard_normal(sig.n_blades) * 10.0 ** rng.integers(-8, 9)
            coeffs[rng.random(sig.n_blades) < 0.5] = 0.0
            got = quantize(rep, Multivector(sig, coeffs))
            want = np.tensordot(coeffs, blade_matrices(rep), axes=(0, 0))
            assert got.dtype == want.dtype and np.array_equal(got, want), (p, q)


def test_blade_table_is_a_read_only_float_copy_of_the_blades(reps):
    for rep in reps.values():
        n, N = rep.sig.n_blades, rep.N
        assert rep.blade_table.dtype == np.float64 and rep.blade_table.shape == (n, N * N)
        assert not rep.blade_table.flags.writeable
        assert np.array_equal(rep.blade_table.reshape(n, N, N), blade_matrices(rep))


def test_quantize_is_algebra_isomorphism(reps):
    for (p, q), rep in reps.items():
        sig = rep.sig
        rng = make_rng(201, stream=p * 10 + q)
        for _ in range(50):
            a = random_multivector(sig, rng)
            b = random_multivector(sig, rng)
            lhs = quantize(rep, geometric_product(a, b))
            rhs = quantize(rep, a) @ quantize(rep, b)
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale
            assert abs(ka_trace(a) - np.trace(quantize(rep, a))) <= 1e-10 * max(
                1.0, abs(ka_trace(a))
            )


def test_dequantize_round_trips(reps):
    for (p, q), rep in reps.items():
        sig = rep.sig
        rng = make_rng(202, stream=p * 10 + q)
        for _ in range(20):
            a = random_multivector(sig, rng)
            back = dequantize(rep, quantize(rep, a))
            assert back.allclose(a, tol=1e-10)
        E = rng.standard_normal((rep.N, rep.N))
        again = quantize(rep, dequantize(rep, E))
        assert np.max(np.abs(again - E)) <= 1e-10 * max(1.0, np.max(np.abs(E)))


@settings(max_examples=120, deadline=None)
@given(
    pq=st.sampled_from(REP_SIGS),
    exponent=st.integers(min_value=-300, max_value=300),
    sparse=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dequantize_matches_the_einsum_trace_pairing(reps, pq, exponent, sparse, seed):
    # one product with the blade table sums each trace in another order
    # than the einsum: the same bits while N <= 4, a few ulps of max|E| above
    rep = reps[pq]
    N = rep.N
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((N, N)) * 10.0**exponent
    if sparse:
        E[rng.random((N, N)) < 0.5] = 0.0
    got = dequantize(rep, E).coeffs
    want = einsum_dequantize(rep, E).coeffs
    if N <= 4:
        assert got.tobytes() == want.tobytes()
    else:
        bound = 4 * N * np.finfo(float).eps * np.max(np.abs(E))
        assert np.max(np.abs(got - want)) <= bound


def test_dequantize_basis_cases(reps):
    rep = reps[(2, 2)]
    sig = rep.sig
    assert dequantize(rep, np.eye(4)).allclose(Multivector.scalar(sig, 1.0), tol=0.0)
    assert dequantize(rep, rep.gammas[0].astype(float)).allclose(
        Multivector.basis(sig, (1,)), tol=0.0
    )


# ---------------------------------------------------------------------------
# admissible pairings
# ---------------------------------------------------------------------------


def test_symmetry_table(paired):
    assert PAIRING_SYMMETRY == {0: (1, 1), 1: (1, -1), 2: (-1, -1), 3: (-1, 1)}
    for pq, pr in paired.items():
        assert (pr.sigma_plus, pr.sigma_minus) == EXPECTED_SYMMETRY[pq]
        np.testing.assert_array_equal(pr.Bplus.T, pr.sigma_plus * pr.Bplus)
        np.testing.assert_array_equal(pr.Bminus.T, pr.sigma_minus * pr.Bminus)


def test_pairings_nondegenerate_and_normalized(paired):
    for pr in paired.values():
        assert abs(np.linalg.det(pr.Bplus)) > 1e-12
        assert abs(np.linalg.det(pr.Bminus)) > 1e-12
        assert np.max(np.abs(pr.Bplus)) == 1.0


def test_definite_and_split_cases(paired):
    eig20 = np.linalg.eigvalsh(paired[(2, 0)].Bplus)
    assert np.all(eig20 > 0)
    eig11 = np.linalg.eigvalsh(paired[(1, 1)].Bplus)
    assert eig11[0] < 0 < eig11[1]


def test_adjoint_identity_all_monomials(paired):
    for pr in paired.values():
        rep = pr.rep
        sig = rep.sig
        for tag in ("plus", "minus"):
            B = pr.B(tag)
            s = pr.s(tag)
            for mask in range(sig.n_blades):
                coeffs = np.zeros(sig.n_blades)
                coeffs[mask] = 1.0
                blade = Multivector(sig, coeffs)
                G = quantize(rep, blade)
                Gt = quantize(rep, s_transpose(pr, s, blade))
                assert np.max(np.abs(B @ G - Gt.T @ B)) <= 1e-12


def test_plus_minus_relation_exact_constant(paired):
    for (p, q), pr in paired.items():
        rep = pr.rep
        Gnu = quantize(rep, Multivector.volume(rep.sig))
        want = (-1.0) ** (q // 2) * pr.Bminus @ Gnu
        np.testing.assert_allclose(pr.Bplus, want, atol=1e-12)


def test_spin_invariance_bivectors(paired):
    # B(gamma(x) s1, s2) + B(s1, gamma(x) s2) = 0 for x = e^i <> e^j
    for pr in paired.values():
        rep = pr.rep
        sig = rep.sig
        for i in range(1, sig.d + 1):
            for j in range(i + 1, sig.d + 1):
                x = geometric_product(
                    Multivector.basis(sig, (i,)), Multivector.basis(sig, (j,))
                )
                gx = quantize(rep, x)
                for B in (pr.Bplus, pr.Bminus):
                    assert np.max(np.abs(B @ gx + gx.T @ B)) <= 1e-12


def test_s_transpose_values_and_matrix_identity(paired):
    pr = paired[(3, 1)]
    sig = pr.rep.sig
    e12 = Multivector.basis(sig, (1, 2))
    e1 = Multivector.basis(sig, (1,))
    assert s_transpose(pr, 1, e12).allclose(-1.0 * e12, tol=0.0)
    assert s_transpose(pr, -1, e1).allclose(-1.0 * e1, tol=0.0)
    rng = make_rng(203)
    for tag in ("plus", "minus"):
        B = pr.B(tag)
        s = pr.s(tag)
        for _ in range(20):
            a = random_multivector(sig, rng)
            lhs = np.linalg.solve(B, quantize(pr.rep, a).T @ B)
            rhs = quantize(pr.rep, s_transpose(pr, s, a))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_s_transpose_matches_involutions(paired):
    pr = paired[(2, 2)]
    sig = pr.rep.sig
    rng = make_rng(204)
    a = random_multivector(sig, rng)
    assert s_transpose(pr, 1, a).allclose(tau(a), tol=0.0)
    assert s_transpose(pr, -1, a).allclose(pi_tau(a), tol=0.0)


# ---------------------------------------------------------------------------
# serialization and spinors
# ---------------------------------------------------------------------------


def test_gamma_rep_json_round_trip(reps):
    rep = reps[(2, 2)]
    payload = json.loads(rep.to_json())
    assert payload["p"] == 2 and payload["q"] == 2 and payload["N"] == 4
    mats = [np.array(m) for m in payload["gammas"]]
    assert all(m.dtype.kind == "i" for m in mats)
    for got, want in zip(mats, rep.gammas):
        np.testing.assert_array_equal(got, want)


def test_paired_rep_json(paired):
    pr = paired[(3, 1)]
    payload = json.loads(pr.to_json())
    assert payload["sigma_plus"] == -1 and payload["sigma_minus"] == -1
    np.testing.assert_allclose(np.array(payload["Bplus"]), pr.Bplus)
    np.testing.assert_allclose(np.array(payload["Bminus"]), pr.Bminus)


def test_spinor_length_checked(reps):
    rep = reps[(3, 1)]
    with pytest.raises(ValueError):
        Spinor(rep, np.zeros(3))
    xi = Spinor(rep, np.arange(4.0))
    assert xi.rep is rep
