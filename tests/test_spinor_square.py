"""Squaring map, admissibility, and reconstruction tests."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin import _kernels, geometry_lab, ka_core, spinor_square
from kaspin.clifford_rep import Spinor, build_pairings, build_rep, dequantize, quantize
from kaspin.ka_core import (
    MAX_DIM,
    Multivector,
    Signature,
    geometric_product,
    inner,
    ka_trace,
    wedge,
)
from kaspin.spinor_square import (
    DEFAULT_TOL,
    ReconstructionError,
    ReconstructionResult,
    allowed_grades,
    check_admissible,
    check_chirality,
    reconstruct,
    square,
    verify_square_conditions,
)
from kaspin.lowdim import polyform_to_pair

from helpers import REP_SIGS, make_rng, random_multivector
from oracles import (
    blade_matrices,
    full_basis_verify_square_conditions,
    multivector_reconstruct,
    multivector_verify_square_conditions,
    random_spinor,
    slow_verify_square_conditions,
)

# grade sets surviving the sign criterion, worked out by hand from
# (-1)^{k(1-s)/2} (-1)^{k(k-1)/2} = sigma with the symmetry table
EXPECTED_GRADES = {
    (2, "plus"): (0, 1),
    (2, "minus"): (1, 2),
    (4, "plus"): (2, 3),
    (4, "minus"): (1, 2),
    (6, "plus"): (2, 3, 6),
    (6, "minus"): (0, 3, 4),
    (8, "plus"): (0, 1, 4, 5, 8),
    (8, "minus"): (0, 3, 4, 7, 8),
}


@pytest.fixture(scope="module")
def paired():
    return {pq: build_pairings(build_rep(Signature(*pq))) for pq in REP_SIGS}


def test_allowed_grades_frozen_table(paired):
    for (p, q), pr in paired.items():
        for tag in ("plus", "minus"):
            assert allowed_grades(pr, tag) == EXPECTED_GRADES[(p + q, tag)]


# ---------------------------------------------------------------------------
# squaring map
# ---------------------------------------------------------------------------


def test_square_two_to_one_and_zero(paired):
    pr = paired[(3, 1)]
    rng = make_rng(301)
    xi = random_spinor(pr.rep, rng)
    neg = Spinor(pr.rep, -xi.components)
    for tag in ("plus", "minus"):
        for kappa in (1, -1):
            a = square(pr, tag, kappa, xi)
            b = square(pr, tag, kappa, neg)
            assert a.alpha.allclose(b.alpha, tol=0.0)
            assert a.kappa == kappa and a.pairing_tag == tag
            assert (a.s, a.sigma) == (pr.pairing(tag).s, pr.pairing(tag).sigma)
    zero = square(pr, "plus", 1, Spinor(pr.rep, np.zeros(4)))
    assert zero.alpha.norm_inf() == 0.0


def test_a_square_is_kept_while_it_is_normal_and_refused_below(paired):
    # a square below the normal range once read as the square of xi = 0, or kept a digit or two
    pr = paired[(3, 1)]
    xi = np.array([1e-150, 3e-150, 0.0, 0.0])
    rec = reconstruct(pr, "minus", square(pr, "minus", 1, Spinor(pr.rep, xi)).alpha)
    sign = np.sign(rec.spinor.components[1])
    np.testing.assert_allclose(sign * rec.spinor.components, xi, rtol=1e-12, atol=0.0)
    for factor in (1e-5, 1e-50):
        with pytest.raises(ValueError, match="the square underflows float64"):
            square(pr, "minus", 1, Spinor(pr.rep, factor * xi))


def _neutral_square(xi):
    pr = build_pairings(build_rep(Signature(2, 2)))
    return square(pr, "minus", 1, Spinor(pr.rep, xi.components)).alpha


def _pairings_44():
    return build_pairings(build_rep(Signature(4, 4)))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda pr, xi: square(pr, "minus", 0, xi), "kappa must be", id="kappa-zero"),
    pytest.param(lambda pr, xi: square(pr, "minus", 2, xi), "kappa must be", id="kappa-two"),
    pytest.param(lambda pr, xi: square(pr, "minus", 1, Spinor(build_rep(Signature(2, 2)),
                                                                xi.components)),
                 "different representation", id="foreign-spinor"),
    # a (2,2) square once read is_square=False against the (3,1) pairings, and a
    # polyform of another blade count failed inside numpy's matmul
    *(pytest.param(lambda pr, xi, test=test: test(pr, "minus", _neutral_square(xi)),
                   "signature mismatch", id=f"{test.__name__}-neutral-square")
      for test in (verify_square_conditions, reconstruct)),
    *(pytest.param(lambda pr, xi, test=test: test(_pairings_44(), "minus",
                                                  square(pr, "minus", 1, xi).alpha),
                   "signature mismatch", id=f"{test.__name__}-other-blade-count")
      for test in (verify_square_conditions, reconstruct)),
    # products xi_i xi_j of 1e310 once gave inf and nan coefficients with numpy warnings
    pytest.param(lambda pr, xi: square(pr, "minus", 1, Spinor(pr.rep, [1e155, 1e155, 0.0, 0.0])),
                 "the square overflows float64", id="overflowing-square"),
    # products xi_i xi_j of 1e-400 once gave the square of xi = 0, and of 3e-320 subnormals
    pytest.param(lambda pr, xi: square(pr, "minus", 1, Spinor(pr.rep, [1e-200, 1e-200, 0.0, 0.0])),
                 "the square underflows float64", id="underflowing-square"),
    pytest.param(lambda pr, xi: square(pr, "minus", 1, Spinor(pr.rep, [1e-160, 3e-160, 0.0, 0.0])),
                 "the square underflows float64", id="subnormal-square"),
    pytest.param(lambda pr, xi: check_chirality(pr, square(pr, "plus", 1, xi).alpha, 0),
                 "mu must be", id="mu-zero"),
])
def test_sign_and_representation_guards(paired, call, message):
    pr = paired[(3, 1)]
    with pytest.raises(ValueError, match=message):
        call(pr, random_spinor(pr.rep, make_rng(303)))


def test_square_degree_filter(paired):
    for (p, q), pr in paired.items():
        d = p + q
        rng = make_rng(302, stream=p * 10 + q)
        for tag in ("plus", "minus"):
            allowed = set(allowed_grades(pr, tag))
            for _ in range(20):
                res = square(pr, tag, int(rng.choice([-1, 1])), random_spinor(pr.rep, rng))
                scale = max(1.0, res.alpha.norm_inf())
                for k in range(d + 1):
                    if k not in allowed:
                        assert res.alpha.grade(k).norm_inf() <= 1e-12 * scale


def test_square_euclidean_plane_identities(paired):
    # 2*alpha = B(xi,xi) + B(gamma_i xi, xi) e^i, with the grade-1 norm tied
    # to the scalar part
    pr = paired[(2, 0)]
    rng = make_rng(303)
    B = pr.pairing("plus").B
    for _ in range(20):
        xi = random_spinor(pr.rep, rng)
        v = xi.components
        res = square(pr, "plus", 1, xi)
        b0 = v @ B @ v
        assert abs(2 * res.alpha.scalar_part - b0) <= 1e-12 * max(1.0, abs(b0))
        for i in (1, 2):
            bi = v @ B @ (pr.rep.gammas[i - 1] @ v)
            assert abs(2 * res.alpha.coeffs[1 << (i - 1)] - bi) <= 1e-12 * max(1.0, abs(bi))
        assert res.alpha.grade(2).norm_inf() <= 1e-12
        a1 = res.alpha.grade(1)
        lhs = 4 * inner(a1, a1)
        assert abs(lhs - b0 * b0) <= 1e-10 * max(1.0, b0 * b0)


def test_square_minkowski_normal_form_shape(paired):
    # minus pairing in (3,1): alpha = u + u /\ l, so grade 1 is null and
    # divides the grade-2 part
    pr = paired[(3, 1)]
    rng = make_rng(304)
    for _ in range(30):
        res = square(pr, "minus", int(rng.choice([-1, 1])), random_spinor(pr.rep, rng))
        a = res.alpha
        scale = max(1.0, a.norm_inf())
        for k in (0, 3, 4):
            assert a.grade(k).norm_inf() <= 1e-12 * scale
        u = a.grade(1)
        assert abs(inner(u, u)) <= 1e-9 * scale * scale
        assert wedge(u, a.grade(2)).norm_inf() <= 1e-9 * scale * scale


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_round_trip_and_kappa(paired):
    for (p, q), pr in paired.items():
        rng = make_rng(305, stream=p * 10 + q)
        for tag in ("plus", "minus"):
            for kappa in (1, -1):
                xi = random_spinor(pr.rep, rng)
                res = square(pr, tag, kappa, xi)
                rec = reconstruct(pr, tag, res.alpha)
                assert rec.kappa == kappa
                got = rec.spinor.components
                if got @ xi.components < 0:
                    got = -got
                err = np.max(np.abs(got - xi.components))
                assert err <= 1e-8 * max(1.0, np.max(np.abs(xi.components)))
                assert rec.residual <= 1e-9


def test_reconstruct_zero(paired):
    pr = paired[(2, 2)]
    rec = reconstruct(pr, "plus", Multivector.zero(pr.rep.sig))
    assert rec.kappa == 0
    assert np.all(rec.spinor.components == 0.0)


def test_reconstruct_rejects_rank_two(paired):
    pr = paired[(3, 1)]
    rng = make_rng(306)
    a = square(pr, "minus", 1, random_spinor(pr.rep, rng)).alpha
    b = square(pr, "minus", 1, random_spinor(pr.rep, rng)).alpha
    with pytest.raises(ReconstructionError):
        reconstruct(pr, "minus", a + b)


def test_reconstruct_rejects_huge_non_square(paired):
    # u = e^1 is spacelike, not null, so no spinor squares to u + u ^ e^4 at
    # any scale; at 1e300 the fit once overflowed to a NaN residual and passed
    pr = paired[(3, 1)]
    alpha = Multivector.from_json('{"p":3,"q":1,"coeffs":{"1":1e300,"1,4":1e300}}')
    with pytest.raises(ReconstructionError):
        reconstruct(pr, "minus", alpha)


def test_reconstruct_and_verify_share_one_default_tol(paired):
    # a square plus a small multiple of another keeps the symmetry and
    # leaves a rank-one residual linear in the weight; weigh it into
    # (1e-9, 1e-8], where reconstruct's old default 1e-8 accepted what
    # verify_square_conditions at its default rejected
    pr = paired[(3, 1)]
    rng = make_rng(319)
    a, b = (square(pr, "minus", 1, random_spinor(pr.rep, rng)).alpha for _ in range(2))
    probe = verify_square_conditions(pr, "minus", a + 1e-6 * b).residual_rank_one
    alpha = a + (3e-9 / probe * 1e-6) * b
    report = verify_square_conditions(pr, "minus", alpha)
    assert 1e-9 < report.residual_rank_one <= 1e-8
    assert report.residual_symmetry <= 1e-12
    assert not report.is_square
    with pytest.raises(ReconstructionError, match="rank-one fit residual"):
        reconstruct(pr, "minus", alpha)
    # at tol = 1e-8 both accept it
    assert verify_square_conditions(pr, "minus", alpha, tol=1e-8).is_square
    assert reconstruct(pr, "minus", alpha, tol=1e-8).kappa == 1


@pytest.mark.parametrize("tag", ["plus", "minus"])
@pytest.mark.parametrize("kappa", [1, -1])
def test_reconstruct_recovers_huge_spinor(paired, tag, kappa):
    pr = paired[(3, 1)]
    xi = np.array([0.5, -1.0, 0.0, 2.0]) * 1e75
    rec = reconstruct(pr, tag, square(pr, tag, kappa, Spinor(pr.rep, xi)).alpha)
    assert rec.kappa == kappa
    got = rec.spinor.components
    err = min(np.max(np.abs(got - xi)), np.max(np.abs(got + xi)))
    assert err <= 1e-8 * np.max(np.abs(xi))
    assert rec.residual <= 1e-9


@pytest.mark.parametrize("tag", ["plus", "minus"])
def test_square_test_holds_near_the_float_range(paired, tag):
    # quantize(alpha) overflows here; the fit runs on alpha scaled by a
    # power of two, so both verdicts and the spinor stay finite
    pr = paired[(4, 4)]
    alpha = square(pr, tag, -1, random_spinor(pr.rep, make_rng(318))).alpha
    factor = 1.5e308 / alpha.norm_inf()
    big = alpha * factor
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(np.tensordot(big.coeffs, blade_matrices(pr.rep), axes=(0, 0))))
    rep = verify_square_conditions(pr, tag, big)
    assert rep.is_square and rep.residual_rank_one <= 1e-12
    rec, ref = reconstruct(pr, tag, big), reconstruct(pr, tag, alpha)
    assert rec.kappa == ref.kappa == -1
    want = ref.spinor.components * np.sqrt(factor)
    assert np.max(np.abs(rec.spinor.components - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_square_below_the_normal_range_is_accepted_without_a_warning(paired):
    # at max-norm 4.4e-311, 1 / norm is inf; zero coefficients once became nan
    pr = paired[(3, 1)]
    alpha = square(pr, "minus", 1, Spinor(pr.rep, np.array([0.3, -1.1, 0.7, 0.5]))).alpha
    tiny = Multivector(alpha.sig, np.ldexp(alpha.coeffs, -1030))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_square_conditions(pr, "minus", tiny)
        assert rep.is_square and rep.residual_symmetry == 0.0
        assert reconstruct(pr, "minus", tiny).kappa == 1


@pytest.mark.parametrize("tag", ["plus", "minus"])
def test_square_test_is_exact_where_the_reciprocal_norm_is_subnormal(paired, tag):
    # above a max-norm of about 4.5e307, 1 / norm is subnormal and drops
    # bits; rescaling by a power of two must leave both residuals as they are
    pr = paired[(3, 1)]
    rng = np.random.default_rng(1)
    for top in (5.2e307, *rng.uniform(4.6e307, 1.7e308, size=9)):
        c = rng.standard_normal(16)
        c *= top / 2.0**1022 / np.max(np.abs(c))
        small, big = (verify_square_conditions(pr, tag, Multivector(pr.rep.sig, v))
                      for v in (c, np.ldexp(c, 1022)))
        assert (big.residual_symmetry, big.residual_rank_one) == (
            small.residual_symmetry, small.residual_rank_one)


# ---------------------------------------------------------------------------
# square conditions
# ---------------------------------------------------------------------------


def test_verify_square_conditions_accepts_squares(paired):
    for (p, q), pr in paired.items():
        rng = make_rng(307, stream=p * 10 + q)
        for tag in ("plus", "minus"):
            res = square(pr, tag, int(rng.choice([-1, 1])), random_spinor(pr.rep, rng))
            rep = verify_square_conditions(pr, tag, res.alpha)
            assert rep.is_square
            assert rep.residual_symmetry <= 1e-9
            assert rep.residual_rank_one <= 1e-9


def test_verify_square_conditions_rejections(paired):
    pr = paired[(3, 1)]
    sig = pr.rep.sig
    # scalar is killed by the grade filter of the minus pairing
    rep = verify_square_conditions(pr, "minus", Multivector.scalar(sig, 1.0))
    assert not rep.is_square and rep.residual_symmetry > 1e-3
    # one-form factor is not null
    bad = Multivector.basis(sig, (1,)) + Multivector.basis(sig, (1, 2)) + Multivector.basis(sig, (1, 3))
    assert not verify_square_conditions(pr, "minus", bad).is_square
    # rank-two sums respect the symmetry condition but are not rank one
    rng = make_rng(308)
    two = (
        square(pr, "minus", 1, random_spinor(pr.rep, rng)).alpha
        + square(pr, "minus", 1, random_spinor(pr.rep, rng)).alpha
    )
    rep2 = verify_square_conditions(pr, "minus", two)
    assert not rep2.is_square
    assert rep2.residual_symmetry <= 1e-12
    assert rep2.residual_rank_one > 1e-3


VARIETY_KINDS = ["square", "perturbed", "two_squares", "rank_one_asymmetric", "random", "zero"]


def _variety_candidate(pr, tag, kind, rng):
    """A polyform of the named kind, for comparing square verdicts."""
    sig, N, B = pr.rep.sig, pr.rep.N, pr.pairing(tag).B
    if kind == "zero":
        return Multivector.zero(sig)
    if kind == "random":
        return Multivector(sig, rng.standard_normal(sig.n_blades))
    if kind == "two_squares":
        # symmetric under the pairing, but of rank two
        x1, x2 = rng.standard_normal((2, N))
        return dequantize(pr.rep, np.outer(x1, x1 @ B) + np.outer(x2, x2 @ B))
    if kind == "rank_one_asymmetric":
        # u (x) (w @ B) with w not parallel to u: rank one, but not symmetric
        u, w = rng.standard_normal((2, N))
        return dequantize(pr.rep, np.outer(u, w @ B))
    kappa = int(rng.choice([-1, 1]))
    alpha = square(pr, tag, kappa, Spinor(pr.rep, rng.standard_normal(N))).alpha
    if kind == "perturbed":
        noise = rng.standard_normal(sig.n_blades)
        alpha = alpha + (1e-3 * alpha.norm_inf() / np.max(np.abs(noise))) * Multivector(sig, noise)
    return alpha


@st.composite
def _variety_case(draw):
    p, q = draw(st.sampled_from([(1, 1), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4)]))
    kind = draw(st.sampled_from(VARIETY_KINDS))
    tag = draw(st.sampled_from(["plus", "minus"]))
    n_probes = draw(st.integers(min_value=0, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return p, q, kind, tag, n_probes, seed


@settings(max_examples=200, deadline=None)
@given(_variety_case())
def test_rank_one_verdict_matches_probe_and_full_basis_oracles(paired, case):
    p, q, kind, tag, n_probes, seed = case
    pr = paired[(p, q)]
    alpha = _variety_candidate(pr, tag, kind, np.random.default_rng(seed))
    got = verify_square_conditions(pr, tag, alpha)
    probed = slow_verify_square_conditions(pr, tag, alpha, n_probes=n_probes, seed=seed)
    full = full_basis_verify_square_conditions(pr, tag, alpha)
    assert got.is_square == probed.is_square == full.is_square
    assert got.is_square == (kind in ("square", "zero"))
    assert got.residual_symmetry == full.residual_symmetry
    if got.is_square:
        assert got.residual_rank_one <= 1e-12
    # reconstruct shares the test, so it accepts exactly the squares
    try:
        reconstruct(pr, tag, alpha, tol=got.tol)
        accepted = True
    except ReconstructionError:
        accepted = False
    assert accepted == got.is_square


def _scaled_candidate(pr, tag, kind, exponent, rng):
    """A square of a spinor at 10^exponent, one perturbed by 1e-6, or a random polyform at 10^(3 exponent)."""
    sig = pr.rep.sig
    if kind == "random":
        return Multivector(sig, rng.standard_normal(sig.n_blades) * 10.0 ** (3 * exponent))
    xi = Spinor(pr.rep, rng.standard_normal(pr.rep.N) * 10.0**exponent)
    alpha = square(pr, tag, int(rng.choice([-1, 1])), xi).alpha
    if kind == "perturbed":
        noise = rng.standard_normal(sig.n_blades)
        alpha = alpha + (1e-6 * alpha.norm_inf() / np.max(np.abs(noise))) * Multivector(sig, noise)
    return alpha


def _reconstruction(recon, pr, tag, alpha):
    """(spinor bytes, kappa, residual) of a reconstruction, or its error message."""
    try:
        result = recon(pr, tag, alpha)
    except ReconstructionError as exc:
        return str(exc)
    if isinstance(result, ReconstructionResult):
        result = (result.spinor.components, result.kappa, result.residual)
    xi, kappa, residual = result
    return np.asarray(xi).tobytes(), kappa, residual


@pytest.mark.parametrize("tag", ["plus", "minus"])
@pytest.mark.parametrize("pq", REP_SIGS)
@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["square", "perturbed", "random"]),
    exponent=st.integers(min_value=-100, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_square_test_is_bit_identical_to_its_multivector_form(paired, pq, tag, kind, exponent, seed):
    # spinors at 1e-100..1e100, so squares at 1e-200..1e200; random
    # polyforms at 1e-300..1e300
    pr = paired[pq]
    alpha = _scaled_candidate(pr, tag, kind, exponent, np.random.default_rng(seed))
    got = verify_square_conditions(pr, tag, alpha)
    want = multivector_verify_square_conditions(pr, tag, alpha)
    assert (got.is_square, got.residual_symmetry, got.residual_rank_one, got.tol) == want
    # a repeated call reads the memo of the first
    assert verify_square_conditions(pr, tag, alpha) == got
    # the Multivector form keeps the old default tol=1e-8: compare at the one default
    want = _reconstruction(partial(multivector_reconstruct, tol=DEFAULT_TOL), pr, tag, alpha)
    first = _reconstruction(reconstruct, pr, tag, alpha)
    assert first == want
    assert _reconstruction(reconstruct, pr, tag, alpha) == first


def test_square_conditions_gather_a_constant_number_of_times(paired, monkeypatch):
    # the variety check is a rank-one fit on quantize(alpha): it makes no
    # product and no gather, and every gather goes through _kernels.product
    # or, for one left operand at d >= 7, _kernels.split_product
    pr = paired[(4, 4)]
    alpha = square(pr, "minus", 1, random_spinor(pr.rep, make_rng(315))).alpha
    counts = {"gathers": 0, "products": 0}
    real_product = ka_core.geometric_product

    def counted(real):
        def gather(*args):
            counts["gathers"] += 1
            return real(*args)
        return gather

    def product(*args):
        counts["products"] += 1
        return real_product(*args)

    for kernel in ("product", "split_product"):
        monkeypatch.setattr(_kernels, kernel, counted(getattr(_kernels, kernel)))
    monkeypatch.setattr(ka_core, "geometric_product", product)
    assert verify_square_conditions(pr, "minus", alpha).is_square
    assert not verify_square_conditions(pr, "minus", alpha + Multivector.scalar(alpha.sig, 1e-3)).is_square
    assert counts == {"gathers": 0, "products": 0}


def test_each_polyform_is_square_tested_once(paired, monkeypatch):
    # verify, reconstruct and polyform_to_pair read one memo keyed by the
    # polyform object: an equal copy is tested anew, and a campaign's
    # stacked test bypasses the memo, one call per block
    calls = []
    real = spinor_square.square_test

    def counted(pr, tag, coeffs):
        calls.append(len(coeffs))
        return real(pr, tag, coeffs)

    monkeypatch.setattr(spinor_square, "square_test", counted)
    monkeypatch.setattr(geometry_lab, "square_test", counted)
    pr = paired[(3, 1)]
    alpha = square(pr, "minus", 1, random_spinor(pr.rep, make_rng(331))).alpha
    for candidate in (alpha, Multivector(alpha.sig, alpha.coeffs)):
        assert verify_square_conditions(pr, "minus", candidate).is_square
        assert reconstruct(pr, "minus", candidate).kappa == 1
        polyform_to_pair(candidate)
    assert calls == [1, 1]
    calls.clear()
    monkeypatch.setattr(geometry_lab, "POINT_BLOCK", 7)
    assert geometry_lab.run_campaign(geometry_lab.preset("ads4"), "killing")["verdict"] == "pass"
    assert calls == [7, 7, 6]


def test_negative_probe_count_is_rejected(paired):
    # the check takes no probe count: a positional one is an error, not a tol
    pr = paired[(3, 1)]
    one = Multivector.scalar(pr.rep.sig, 1.0)
    with pytest.raises(TypeError):
        verify_square_conditions(pr, "minus", one, -1)
    with pytest.raises(TypeError):
        verify_square_conditions(pr, "minus", one, n_probes=10)


def test_seed_is_accepted_and_changes_nothing(paired):
    pr = paired[(3, 1)]
    alpha = square(pr, "minus", 1, random_spinor(pr.rep, make_rng(317))).alpha
    base = verify_square_conditions(pr, "minus", alpha)
    for seed in (None, 0, 12345):
        rep = verify_square_conditions(pr, "minus", alpha, seed=seed)
        assert (rep.is_square, rep.residual_symmetry, rep.residual_rank_one) == (
            base.is_square,
            base.residual_symmetry,
            base.residual_rank_one,
        )


def test_verify_zero_alpha_is_square(paired):
    pr = paired[(1, 1)]
    rep = verify_square_conditions(pr, "plus", Multivector.zero(pr.rep.sig))
    assert rep.is_square


def test_sandwich_identity_all_monomials(paired):
    for (p, q), pr in paired.items():
        sig = pr.rep.sig
        rng = make_rng(309, stream=p * 10 + q)
        alpha = square(pr, "plus", 1, random_spinor(pr.rep, rng)).alpha
        ahat = alpha * (1.0 / alpha.norm_inf())
        for mask in range(sig.n_blades):
            coeffs = np.zeros(sig.n_blades)
            coeffs[mask] = 1.0
            beta = Multivector(sig, coeffs)
            ab = geometric_product(ahat, beta)
            lhs = geometric_product(ab, ahat)
            rhs = ahat * ka_trace(ab)
            assert (lhs - rhs).norm_inf() <= 1e-9


def test_spin_equivariance(paired):
    t = 0.3
    for pq in [(2, 0), (3, 1), (2, 2), (3, 3)]:
        pr = paired[pq]
        sig = pr.rep.sig
        rng = make_rng(310, stream=pq[0] * 10 + pq[1])
        x = Multivector.scalar(sig, np.cos(t)) + np.sin(t) * geometric_product(
            Multivector.basis(sig, (1,)), Multivector.basis(sig, (2,))
        )
        xinv = Multivector.scalar(sig, np.cos(t)) + (-np.sin(t)) * geometric_product(
            Multivector.basis(sig, (1,)), Multivector.basis(sig, (2,))
        )
        gx = quantize(pr.rep, x)
        gx_inv = quantize(pr.rep, xinv)
        np.testing.assert_allclose(gx @ gx_inv, np.eye(pr.rep.N), atol=1e-12)
        for tag in ("plus", "minus"):
            xi = random_spinor(pr.rep, rng)
            rotated = square(pr, tag, 1, Spinor(pr.rep, gx @ xi.components))
            base = square(pr, tag, 1, xi)
            lhs = quantize(pr.rep, rotated.alpha)
            rhs = gx @ quantize(pr.rep, base.alpha) @ gx_inv
            assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))


# ---------------------------------------------------------------------------
# admissibility of endomorphisms
# ---------------------------------------------------------------------------


def test_check_admissible_accepts_squares(paired):
    for pq in [(3, 1), (2, 2)]:
        pr = paired[pq]
        rng = make_rng(311, stream=pq[0] * 10 + pq[1])
        for tag in ("plus", "minus"):
            E = quantize(pr.rep, square(pr, tag, 1, random_spinor(pr.rep, rng)).alpha)
            rep = check_admissible(pr, tag, E)
            assert rep.is_square
            assert rep.residual_rank_one <= 1e-9
            assert rep.residual_symmetry <= 1e-9


def test_check_admissible_rejects_identity(paired):
    pr = paired[(3, 1)]
    rep = check_admissible(pr, "plus", np.eye(4))
    assert not rep.is_square
    assert rep.residual_rank_one > 0.5


def test_check_admissible_rejects_non_finite_endomorphisms_without_raising(paired):
    # each of these once raised LinAlgError (SVD did not converge) instead of failing
    for pq in [(3, 1), (4, 4)]:
        pr = paired[pq]
        N = pr.rep.N
        one_inf = np.ones((N, N))
        one_inf[0, 1] = np.inf
        for tag in ("plus", "minus"):
            for E in (np.full((N, N), np.nan), np.full((N, N), np.inf), one_inf):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rep = check_admissible(pr, tag, E)
                assert rep.is_square is False
                assert np.isnan(rep.residual_symmetry) and np.isnan(rep.residual_rank_one)
            with pytest.raises(ValueError, match="expected a"):
                check_admissible(pr, tag, np.full((N, N + 1), np.nan))


@pytest.mark.parametrize("top", [1.5e308, np.finfo(float).max], ids=["1.5e308", "finfo.max"])
@pytest.mark.parametrize("pq", [(3, 1), (2, 2), (4, 4)])
def test_check_admissible_accepts_squares_at_the_top_of_float64(paired, pq, top):
    # dequantize's traces once overflowed here: a square read as nan, "not a square"
    pr = paired[pq]
    rng = make_rng(317, stream=pq[0] * 10 + pq[1])
    for tag in ("plus", "minus"):
        for kappa in (1, -1):
            E = quantize(pr.rep, square(pr, tag, kappa, random_spinor(pr.rep, rng)).alpha)
            rep = check_admissible(pr, tag, E / abs(E).max() * top)
            assert rep.is_square and rep.residual_rank_one <= 1e-9, (tag, kappa)


def _probe_admissible(pr, tag, E, tol):
    """Admissibility by the sandwich E A E = tr(E A) E on probes, one at a time.

    The probes are the identity, ten random quantized polyforms and the
    taming operator B^-T; one of them must see tr(E A) != 0.
    """
    B = pr.pairing(tag).B
    rng = make_rng(5, stream=97)
    probes = [np.eye(pr.rep.N)]
    probes += [quantize(pr.rep, random_multivector(pr.rep.sig, rng)) for _ in range(10)]
    probes.append(np.linalg.inv(B).T)
    Ehat = E / np.max(np.abs(E))
    transpose = np.max(np.abs(np.linalg.solve(B, Ehat.T @ B) - pr.pairing(tag).sigma * Ehat))
    idempotent = np.max(np.abs(Ehat @ Ehat - np.trace(Ehat) * Ehat))
    traces = [np.trace(Ehat @ A) for A in probes]
    sandwich = max(np.max(np.abs(Ehat @ A @ Ehat - t * Ehat)) for A, t in zip(probes, traces))
    witness = any(abs(t) > tol for t in traces)
    return witness and max(transpose, idempotent, sandwich) <= tol


def test_admissibility_matches_per_probe_loop(paired):
    for pq in REP_SIGS:
        pr = paired[pq]
        rng = make_rng(316, stream=pq[0] * 10 + pq[1])
        for tag in ("plus", "minus"):
            B = pr.pairing(tag).B
            u, w, x = rng.standard_normal((3, pr.rep.N))
            good = quantize(pr.rep, square(pr, tag, 1, Spinor(pr.rep, u)).alpha)
            cases = (
                good,
                good + 1e-3 * rng.standard_normal(good.shape),
                np.eye(pr.rep.N),
                np.outer(u, w @ B),
                np.outer(u, u @ B) + np.outer(x, x @ B),
            )
            # a power-of-two scale is exact, so neither verdict may move with it
            for scale in (1.0, 2.0**600, 2.0**-600):
                verdicts = []
                for E in cases:
                    rep = check_admissible(pr, tag, scale * E)
                    assert rep.is_square == _probe_admissible(pr, tag, scale * E, rep.tol)
                    verdicts.append(rep.is_square)
                assert verdicts == [True, False, False, False, False], (pq, tag, scale)


def test_split_plane_example_raw_pairing(paired):
    # Cl(1,1)'s plus pairing is B = [[0, 1], [1, 0]] with sigma = +1; with respect to it
    # E = [[a, b], [c, a]] is a square kappa * xi (x) (xi @ B) exactly when b c = a^2
    pr = paired[(1, 1)]
    B = pr.pairing("plus").B
    assert np.array_equal(B, [[0.0, 1.0], [1.0, 0.0]]) and pr.pairing("plus").sigma == 1
    xi = np.array([2.0, 1.0])
    good = -1.0 * np.outer(xi, xi @ B)  # [[-2, -4], [-1, -2]]
    rep = check_admissible(pr, "plus", good)
    assert rep.is_square and rep.residual_rank_one == 0.0 and rep.residual_symmetry == 0.0
    bad = good.copy()
    bad[1, 0] = -2.0  # b c = 8, a^2 = 4
    assert not check_admissible(pr, "plus", bad).is_square


def test_zero_endomorphism_admissible(paired):
    pr = paired[(2, 2)]
    rep = check_admissible(pr, "plus", np.zeros((4, 4)))
    assert rep.is_square and rep.residual_rank_one == 0.0 and rep.residual_symmetry == 0.0


# ---------------------------------------------------------------------------
# chirality and constraint transfer
# ---------------------------------------------------------------------------


def test_check_chirality_projected_spinors(paired):
    for pq in [(1, 1), (2, 2), (3, 3), (4, 4)]:
        pr = paired[pq]
        Gnu = quantize(pr.rep, Multivector.volume(pr.rep.sig))
        np.testing.assert_allclose(Gnu @ Gnu, np.eye(pr.rep.N), atol=1e-12)
        rng = make_rng(312, stream=pq[0])
        xi = random_spinor(pr.rep, rng)
        for mu in (1, -1):
            proj = 0.5 * (xi.components + mu * Gnu @ xi.components)
            assert np.max(np.abs(proj)) > 1e-3
            alpha = square(pr, "plus", 1, Spinor(pr.rep, proj)).alpha
            assert check_chirality(pr, alpha, mu)
            assert not check_chirality(pr, alpha, -mu)


def test_check_chirality_needs_neutral_signature(paired):
    pr = paired[(3, 1)]
    with pytest.raises(ValueError):
        check_chirality(pr, Multivector.scalar(pr.rep.sig, 1.0), 1)


def test_check_chirality_tests_nu_squared_on_every_supported_signature():
    supported = [
        Signature(p, d - p)
        for d in range(1, MAX_DIM + 1)
        for p in range(d + 1)
        if Signature(p, d - p).supports_rep()
    ]
    assert len(supported) == 8
    for sig in supported:
        pr = build_pairings(build_rep(sig))
        Gnu = quantize(pr.rep, Multivector.volume(sig))
        nu_squared_is_one = np.array_equal(Gnu @ Gnu, np.eye(pr.rep.N))
        assert nu_squared_is_one or np.array_equal(Gnu @ Gnu, -np.eye(pr.rep.N))
        # for p - q in {0, 2}, nu^2 = +1 exactly on the neutral signatures
        assert nu_squared_is_one == (sig.p == sig.q)
        alpha = Multivector.scalar(sig, 1.0)
        if nu_squared_is_one:
            assert check_chirality(pr, alpha, 1) is False
        else:
            with pytest.raises(ValueError, match="nu\\^2 = -1"):
                check_chirality(pr, alpha, 1)


def test_constraint_transfer(paired):
    # Q xi = 0 exactly when dequantize(Q) <> alpha = 0, for alpha the square of xi
    pr = paired[(2, 2)]
    rng = make_rng(313)
    xi = random_spinor(pr.rep, rng)
    alpha = square(pr, "minus", 1, xi).alpha

    def transfer(Q):
        return geometric_product(dequantize(pr.rep, Q), alpha).norm_inf()

    assert transfer(np.zeros((4, 4))) == 0.0
    assert transfer(np.eye(4)) > 1e-3
    # projector annihilating xi: Q = Id - xi zeta^T / (zeta . xi)
    zeta = rng.standard_normal(4)
    Q = np.eye(4) - np.outer(xi.components, zeta) / (zeta @ xi.components)
    assert np.max(np.abs(Q @ xi.components)) <= 1e-12 * np.max(np.abs(xi.components))
    scale = max(1.0, alpha.norm_inf()) * max(1.0, np.max(np.abs(Q)))
    assert transfer(Q) <= 1e-9 * scale
