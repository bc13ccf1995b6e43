"""Low-dimensional normal forms: parabolic pairs, flags, split-plane squares."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaspin.clifford_rep import Spinor, build_pairings, build_rep, quantize
from kaspin.ka_core import (
    FormMetric,
    Multivector,
    Signature,
    hodge_star,
    wedge,
)
from kaspin.lowdim import (
    ParabolicPair,
    check_22_chiral_square,
    normalize_gauge,
    pair_equivalent,
    pair_to_flag,
    pair_to_polyform,
    polyform_to_pair,
    random_parabolic_pair,
)
from kaspin.rng import make_rng, random_spinor
from kaspin.spinor_square import reconstruct, square, verify_square_conditions

from oracles import (
    multivector_check_22_chiral_square,
    multivector_normalize_gauge,
    multivector_pair,
    multivector_pair_to_flag,
    multivector_polyform_to_pair,
)

SIG = Signature(3, 1)
H = FormMetric.from_signature(SIG)


def cov(*comps):
    return Multivector.covector(SIG, np.array(comps, dtype=float))


def base_pair():
    return ParabolicPair(cov(1, 0, 0, 1), cov(0, 1, 0, 0))


# ---------------------------------------------------------------------------
# pair construction and validation
# ---------------------------------------------------------------------------


def test_pair_invariants_enforced():
    base_pair()
    with pytest.raises(ValueError):
        ParabolicPair(cov(1, 0, 0, 0), cov(0, 1, 0, 0))  # u not null
    with pytest.raises(ValueError):
        ParabolicPair(cov(1, 0, 0, 1), cov(0, 2, 0, 0))  # l not unit
    with pytest.raises(ValueError):
        ParabolicPair(cov(1, 0, 0, 1), cov(1, 0, 0, 0))  # not orthogonal
    with pytest.raises(ValueError):
        ParabolicPair(cov(0, 0, 0, 0), cov(0, 1, 0, 0))  # u vanishes


def test_random_pairs_satisfy_invariants():
    rng = make_rng(401)
    for _ in range(100):
        pp = random_parabolic_pair(rng)
        assert abs(H.inner(pp.u, pp.u)) <= 1e-12
        assert abs(H.inner(pp.l, pp.l) - 1.0) <= 1e-12
        assert abs(H.inner(pp.u, pp.l)) <= 1e-12


def test_pair_json_round_trip():
    pp = base_pair()
    payload = json.loads(pp.to_json())
    assert payload["u"] == [1.0, 0.0, 0.0, 1.0]
    assert payload["l"] == [0.0, 1.0, 0.0, 0.0]
    back = ParabolicPair.from_json(pp.to_json())
    assert back.u.allclose(pp.u, tol=0.0) and back.l.allclose(pp.l, tol=0.0)


# ---------------------------------------------------------------------------
# pair <-> polyform
# ---------------------------------------------------------------------------


def test_pair_to_polyform_example():
    pp = base_pair()
    alpha = pair_to_polyform(pp)
    assert alpha.allclose(pp.u + wedge(pp.u, pp.l), tol=0.0)
    pr = build_pairings(build_rep(SIG))
    assert verify_square_conditions(pr, "minus", alpha).is_square


def test_sign_flip_and_gauge_invariance():
    pp = base_pair()
    alpha = pair_to_polyform(pp)
    flipped = pair_to_polyform(ParabolicPair(-pp.u, pp.l))
    assert flipped.allclose(-alpha, tol=0.0)
    # integer data keeps the l -> l + c u identity exact
    for c in (1.0, 3.0, -2.0):
        shifted = pair_to_polyform(ParabolicPair(pp.u, pp.l + c * pp.u))
        np.testing.assert_array_equal(shifted.coeffs, alpha.coeffs)
    rng = make_rng(402)
    rp = random_parabolic_pair(rng)
    a0 = pair_to_polyform(rp)
    a1 = pair_to_polyform(ParabolicPair(rp.u, rp.l + 0.37 * rp.u))
    assert a1.allclose(a0, tol=1e-14)


def test_polyform_to_pair_round_trip_example():
    pp = base_pair()
    alpha = pair_to_polyform(pp)
    rec = polyform_to_pair(alpha)
    assert rec.u.allclose(pp.u, tol=1e-12)
    assert pair_equivalent(rec, pp, "strong")
    assert pair_to_polyform(rec).allclose(alpha, tol=1e-9)


def test_polyform_to_pair_rejections():
    pp = base_pair()
    alpha = pair_to_polyform(pp)
    with pytest.raises(ValueError):
        polyform_to_pair(Multivector.scalar(SIG, 1.0) + alpha)  # grade 0 present
    with pytest.raises(ValueError):
        polyform_to_pair(pp.u)  # no grade-2 part
    with pytest.raises(ValueError):
        polyform_to_pair(pp.u + 2.0 * wedge(pp.u, pp.l))  # factor not unit
    with pytest.raises(ValueError):
        polyform_to_pair(cov(1, 0, 0, 0) + wedge(cov(1, 0, 0, 0), pp.l))  # u not null
    with pytest.raises(ValueError):
        polyform_to_pair(pp.u + wedge(cov(0, 1, 0, 0), cov(0, 0, 1, 0)))  # not u /\ l
    with pytest.raises(ValueError):
        polyform_to_pair(Multivector.zero(SIG))


def test_round_trip_random_pairs():
    rng = make_rng(403)
    for _ in range(200):
        pp = random_parabolic_pair(rng)
        back = polyform_to_pair(pair_to_polyform(pp))
        assert pair_equivalent(back, pp, "strong")
        assert pair_to_polyform(back).allclose(pair_to_polyform(pp), tol=1e-9)


def test_bijection_chain_spinor_to_pair_and_back():
    pr = build_pairings(build_rep(SIG))
    rng = make_rng(404)
    for _ in range(25):
        xi = random_spinor(pr.rep, rng)
        alpha = square(pr, "minus", 1, xi).alpha
        pp = polyform_to_pair(alpha)
        rec = reconstruct(pr, "minus", pair_to_polyform(pp))
        assert rec.kappa == 1
        got = rec.spinor.components
        if got @ xi.components < 0:
            got = -got
        assert np.max(np.abs(got - xi.components)) <= 1e-8 * max(
            1.0, np.max(np.abs(xi.components))
        )


# ---------------------------------------------------------------------------
# equivalence relations
# ---------------------------------------------------------------------------


def test_pair_equivalences():
    pp = base_pair()
    strong = ParabolicPair(-pp.u, pp.l + 3.0 * pp.u)
    assert pair_equivalent(pp, strong, "strong")
    assert pair_equivalent(pp, strong, "plain")
    assert pair_equivalent(pp, strong, "weak")

    plain = ParabolicPair(2.0 * pp.u, pp.l)
    assert not pair_equivalent(pp, plain, "strong")
    assert pair_equivalent(pp, plain, "plain")
    assert pair_equivalent(pp, plain, "weak")

    weak = ParabolicPair(pp.u, -pp.l)
    assert not pair_equivalent(pp, weak, "strong")
    assert not pair_equivalent(pp, weak, "plain")
    assert pair_equivalent(pp, weak, "weak")

    other = ParabolicPair(cov(0, 1, 0, 1), cov(1, 0, 0, 0))
    assert not pair_equivalent(pp, other, "weak")

    with pytest.raises(ValueError):
        pair_equivalent(pp, strong, "loose")


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------


def span_rank(forms):
    return np.linalg.matrix_rank(np.array([f.one_form_components() for f in forms]))


def test_pair_to_flag_example_and_ranks():
    pp = base_pair()
    flag = pair_to_flag(pp)
    assert span_rank(flag.W1) == 1 and span_rank(flag.W2) == 2 and span_rank(flag.W3) == 3
    # W3 must coincide with span{e^1+e^4, e^2, e^3}
    want = [cov(1, 0, 0, 1), cov(0, 1, 0, 0), cov(0, 0, 1, 0)]
    assert span_rank(list(flag.W3) + want) == 3
    # every W3 element is h*-orthogonal to u
    for w in flag.W3:
        assert abs(H.inner(w, pp.u)) <= 1e-12

    def gram_rank(forms):
        G = np.array([[H.inner(a, b) for b in forms] for a in forms])
        return np.linalg.matrix_rank(G, tol=1e-9)

    assert gram_rank(flag.W1) == 0
    assert gram_rank(flag.W2) == 1
    assert gram_rank(flag.W3) == 2


def test_flag_gauge_invariance():
    rng = make_rng(405)
    pp = random_parabolic_pair(rng)
    shifted = ParabolicPair(pp.u, pp.l + 0.9 * pp.u)
    f1, f2 = pair_to_flag(pp), pair_to_flag(shifted)
    for a, b, r in ((f1.W1, f2.W1, 1), (f1.W2, f2.W2, 2), (f1.W3, f2.W3, 3)):
        assert span_rank(list(a) + list(b)) == r


# ---------------------------------------------------------------------------
# gauge normalization
# ---------------------------------------------------------------------------


def test_normalize_gauge():
    v = cov(0, 0, 0, 1)
    pp = base_pair()
    same = normalize_gauge(pp, v)
    assert same.l.allclose(pp.l, tol=0.0)

    tilted = ParabolicPair(pp.u, cov(1, 1, 0, 1))
    fixed = normalize_gauge(tilted, v)
    assert abs(H.inner(fixed.l, v)) <= 1e-12
    assert fixed.l.allclose(cov(0, 1, 0, 0), tol=0.0)
    again = normalize_gauge(fixed, v)
    assert again.l.allclose(fixed.l, tol=0.0)

    with pytest.raises(ValueError):
        normalize_gauge(pp, cov(1, 0, 0, 0))  # spacelike probe


def test_normalize_gauge_rejects_a_direction_of_another_signature():
    # a (2,2) one-form passes the one-form test; the metric then refuses it
    v = Multivector.basis(Signature(2, 2), (4,))
    with pytest.raises(ValueError, match="signature mismatch"):
        normalize_gauge(base_pair(), v)


# ---------------------------------------------------------------------------
# split-plane and neutral-plane normal forms
# ---------------------------------------------------------------------------


def test_split_plane_square_normal_form():
    # plus pairing in (1,1): alpha = alpha^0 + alpha^1 with
    # (alpha^0)^2 = h*(alpha^1, alpha^1)
    sig = Signature(1, 1)
    h = FormMetric.from_signature(sig)
    pr = build_pairings(build_rep(sig))
    rng = make_rng(406)
    for _ in range(100):
        alpha = square(pr, "plus", int(rng.choice([-1, 1])), random_spinor(pr.rep, rng)).alpha
        scale = max(1.0, alpha.norm_inf())
        assert alpha.grade(2).norm_inf() <= 1e-12 * scale
        a1 = alpha.grade(1)
        assert abs(alpha.scalar_part**2 - h.inner(a1, a1)) <= 1e-9 * scale * scale


SIG22 = Signature(2, 2)


def sd_basis():
    def b(i, j):
        return Multivector.basis(SIG22, (i, j))

    return (b(1, 2) + b(3, 4), b(1, 3) + b(2, 4), b(1, 4) - b(2, 3))


def test_22_self_dual_basis_frozen():
    h = FormMetric.from_signature(SIG22)
    u1, u2, u3 = sd_basis()
    for w in (u1, u2, u3):
        assert hodge_star(w).allclose(w, tol=0.0)
    assert h.inner(u1, u1) == 2.0
    assert h.inner(u2, u2) == -2.0
    assert h.inner(u3, u3) == -2.0


def test_check_22_chiral_square_cases():
    u1, u2, u3 = sd_basis()
    assert check_22_chiral_square(u1 + u2)  # norm 2 - 2 = 0
    assert not check_22_chiral_square(u1)  # norm 2
    assert not check_22_chiral_square(u2)  # norm -2
    # anti-self-dual zero-norm form fails the duality half
    anti = (
        Multivector.basis(SIG22, (1, 2))
        - Multivector.basis(SIG22, (3, 4))
        + Multivector.basis(SIG22, (1, 3))
        - Multivector.basis(SIG22, (2, 4))
    )
    assert abs(FormMetric.from_signature(SIG22).inner(anti, anti)) == 0.0
    assert not check_22_chiral_square(anti)
    with pytest.raises(ValueError):
        check_22_chiral_square(Multivector.scalar(SIG, 1.0))


def test_22_chiral_spinor_squares():
    from kaspin.clifford_rep import quantize
    from kaspin.spinor_square import check_chirality

    pr = build_pairings(build_rep(SIG22))
    Gnu = quantize(pr.rep, Multivector.volume(SIG22))
    rng = make_rng(407)
    for _ in range(20):
        xi = random_spinor(pr.rep, rng)
        neg = Spinor(pr.rep, 0.5 * (xi.components - Gnu @ xi.components))
        alpha = square(pr, "plus", 1, neg).alpha
        assert check_22_chiral_square(alpha)
        assert check_chirality(pr, alpha, -1)
        pos = Spinor(pr.rep, 0.5 * (xi.components + Gnu @ xi.components))
        beta = square(pr, "plus", 1, pos).alpha
        assert beta.norm_inf() > 1e-6
        assert not check_22_chiral_square(beta)


# ---------------------------------------------------------------------------
# against the Multivector-arithmetic forms
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _bits(*forms):
    return tuple(form.coeffs.tobytes() for form in forms)


def _nonfinite(alpha, rng):
    coeffs = alpha.coeffs.copy()
    coeffs[rng.integers(len(coeffs))] = rng.choice([np.inf, -np.inf, np.nan])
    return Multivector(alpha.sig, coeffs)


def _candidate(pr, kind, exponent, rng):
    """A chiral or Lorentzian square at 10^exponent, perturbed, random, or not finite."""
    sig, N = pr.rep.sig, pr.rep.N
    if kind == "random":
        return Multivector(sig, rng.standard_normal(sig.n_blades) * 10.0 ** (3 * exponent))
    xi = rng.standard_normal(N) * 10.0**exponent
    if sig == SIG22:
        # negative chirality: the plus-pairing squares are the self-dual null two-forms
        nu = quantize(pr.rep, Multivector.volume(sig))
        alpha = square(pr, "plus", 1, Spinor(pr.rep, 0.5 * (xi - nu @ xi))).alpha
    else:
        alpha = square(pr, "minus", int(rng.choice([-1, 1])), Spinor(pr.rep, xi)).alpha
    if kind in ("perturbed", "nudged"):
        # 1e-12 stays inside the tolerance of every check
        size = 1e-6 if kind == "perturbed" else 1e-12
        noise = rng.standard_normal(sig.n_blades)
        alpha = alpha + (size * alpha.norm_inf() / np.max(np.abs(noise))) * Multivector(sig, noise)
    if kind == "nonfinite":
        alpha = _nonfinite(alpha, rng)
    return alpha


def _timelike_unit(rng, wobble):
    space = 0.5 * rng.standard_normal(3)
    return cov(*space, np.sqrt(1.0 + space @ space) + wobble)


KINDS = ["square", "perturbed", "nudged", "random", "nonfinite"]


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    exponent=st.integers(min_value=-100, max_value=100),
    wobble=st.sampled_from([0.0, 1e-12, 1e-3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pair_forms_are_bit_identical_to_their_multivector_forms(kind, exponent, wobble, seed):
    rng = np.random.default_rng(seed)
    alpha = _candidate(build_pairings(build_rep(SIG)), kind, exponent, rng)
    v = _timelike_unit(rng, wobble)
    with np.errstate(all="ignore"):
        got = _outcome(polyform_to_pair, alpha)
        want = _outcome(multivector_polyform_to_pair, alpha)
        if isinstance(want, str):
            assert got == want
            return
        assert _bits(got.u, got.l) == _bits(*want)
        gauged = _outcome(normalize_gauge, got, v)
        want_gauged = _outcome(multivector_normalize_gauge, *want, v)
    if isinstance(want_gauged, str):
        assert gauged == want_gauged
    else:
        assert _bits(gauged.u, gauged.l) == _bits(*want_gauged)
    flag = pair_to_flag(got)
    want_flag = multivector_pair_to_flag(*want)
    assert _bits(*flag.W1, *flag.W2, *flag.W3) == _bits(*want_flag[0], *want_flag[1], *want_flag[2])


@settings(max_examples=150, deadline=None)
@given(
    u_noise=st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]),
    l_noise=st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]),
    l_scale=st.sampled_from([1.0, 1.0 + 1e-12, 2.0]),
    every_blade=st.booleans(),
    poison=st.sampled_from([None, "u", "l"]),
    blade=st.integers(min_value=0, max_value=15),
    bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pair_checks_match_their_multivector_form(
    u_noise, l_noise, l_scale, every_blade, poison, blade, bad, seed
):
    # noise on every blade crosses the one-form check, noise on the
    # one-form part alone the null, unit and orthogonality checks; a
    # non-finite coefficient, on a one-form blade too, must fail as before
    rng = np.random.default_rng(seed)
    pp = random_parabolic_pair(rng)
    where = np.ones(16)
    if not every_blade:
        where = np.zeros(16)
        where[[1, 2, 4, 8]] = 1.0
    members = {
        "u": pp.u.coeffs + u_noise * where * rng.standard_normal(16),
        "l": l_scale * pp.l.coeffs + l_noise * where * rng.standard_normal(16),
    }
    if poison is not None:
        members[poison][blade] = bad
    u, l = Multivector(SIG, members["u"]), Multivector(SIG, members["l"])
    with np.errstate(all="ignore"):
        got = _outcome(ParabolicPair, u, l)
        want = _outcome(multivector_pair, u, l)
    if isinstance(want, str):
        assert got == want
    else:
        assert _bits(got.u, got.l) == _bits(*want)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    exponent=st.integers(min_value=-100, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_chiral_square_check_matches_its_multivector_form(kind, exponent, seed):
    pr = build_pairings(build_rep(SIG22))
    alpha = _candidate(pr, kind, exponent, np.random.default_rng(seed))
    with np.errstate(all="ignore"):
        assert check_22_chiral_square(alpha) == multivector_check_22_chiral_square(alpha)
