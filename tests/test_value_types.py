"""The value types every subcommand imports: immutable, validated, cached as before.

Signature is a (p, q) tuple; Multivector, GammaRep, PairedRep and Spinor are
__slots__ classes; the spinor_square results are NamedTuples.
"""

import numpy as np
import pytest

from kaspin.clifford_rep import (
    GammaRep,
    PairedRep,
    Spinor,
    build_pairings,
    build_rep,
    s_transpose_signs,
)
from kaspin.ka_core import Multivector, Signature
from kaspin.spinor_square import (
    reconstruct,
    square,
    verify_square_conditions,
)


@pytest.fixture(scope="module")
def values():
    """One instance of each value type, all at (3, 1)."""
    sig = Signature(3, 1)
    rep = build_rep(sig)
    pr = build_pairings(rep)
    xi = Spinor(rep, [0.5, -1.0, 2.0, 0.25])
    result = square(pr, "minus", 1, xi)
    return {
        "Signature": sig,
        "Multivector": result.alpha,
        "GammaRep": rep,
        "PairedRep": pr,
        "Spinor": xi,
        "SquareResult": result,
        "SquareConditionsReport": verify_square_conditions(pr, "minus", result.alpha),
        "ReconstructionResult": reconstruct(pr, "minus", result.alpha),
    }


TYPES = ["Signature", "Multivector", "GammaRep", "PairedRep", "Spinor", "SquareResult",
         "SquareConditionsReport", "ReconstructionResult"]


@pytest.mark.parametrize("name", TYPES)
def test_no_attribute_can_be_assigned_or_deleted(values, name):
    value = values[name]
    assert type(value).__name__ == name
    field = next(iter(value._fields if isinstance(value, tuple) else type(value).__slots__))
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert getattr(value, field) is before


@pytest.mark.parametrize("p, q, message", [
    (-1, 2, "signature counts must be non-negative"),
    (0, 0, "dimension must be at least 1"),
    (5, 4, "dense storage is capped at d <= 8"),
])
def test_signature_rejects_what_it_always_rejected(p, q, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Signature(p, q)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Signature(p=p, q=q)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Signature(1, 1)._replace(p=p, q=q)


@pytest.mark.parametrize("p, q", [
    (3.0, 1.0), (3, 1.0), (2.5, 1), (np.float64(3.0), 1), (True, 1), (3, False), (np.True_, 1),
    ("3", 1), (3, None),
], ids=["floats", "float-q", "fraction", "numpy-float", "true", "false", "numpy-bool", "string",
        "none"])
def test_signature_rejects_counts_that_are_not_integers(p, q):
    # a float count once built and failed later, in n_blades' shift
    message = "^signature counts must be integers, got "
    with pytest.raises(ValueError, match=message):
        Signature(p, q)
    with pytest.raises(ValueError, match=message):
        Signature(p=p, q=q)
    with pytest.raises(ValueError, match=message):
        Signature(1, 1)._replace(p=p, q=q)


def test_signature_takes_numpy_integers_as_ints():
    # numpy counts were once kept as they came, and to_json then raised TypeError
    sig = Signature(np.int64(3), np.uint8(1))
    assert sig == Signature(3, 1) and sig.n_blades == 16
    assert type(sig.p) is int and type(sig.q) is int and repr(sig) == "Signature(p=3, q=1)"
    assert Multivector.from_json(Multivector.zero(sig).to_json()).sig == sig


def test_signature_is_a_value():
    sig = Signature(3, 1)
    assert sig == Signature(p=3, q=1) and hash(sig) == hash(Signature(3, 1))
    assert sorted([Signature(4, 4), Signature(2, 2), Signature(3, 1)])[0] == Signature(2, 2)
    assert (sig.p, sig.q, sig.d, sig.n_blades) == (3, 1, 4, 16)
    p, q = sig
    assert (p, q) == (3, 1)
    assert repr(sig) == "Signature(p=3, q=1)"
    assert type(sig._replace(q=3)) is Signature and sig._replace(q=3) == (3, 3)


def test_equal_signatures_share_one_rep_and_reps_key_pairings_by_identity():
    rep = build_rep(Signature(2, 2))
    size = build_rep.cache_info().currsize
    assert build_rep(Signature(2, 2)) is rep
    assert build_rep.cache_info().currsize == size
    pr = build_pairings(rep)
    assert build_pairings(rep) is pr
    twin = GammaRep(rep.sig, rep.gammas)
    assert twin != rep and np.array_equal(twin.blade_table, rep.blade_table)
    assert build_pairings(twin) is not pr


def test_multivector_and_spinor_hold_read_only_copies():
    sig = Signature(3, 1)
    coeffs = np.arange(16.0)
    alpha = Multivector(sig, coeffs)
    components = np.array([1.0, 2.0, 3.0, 4.0])
    xi = Spinor(build_rep(sig), components)
    coeffs[0] = components[0] = -7.0
    assert alpha.coeffs[0] == 0.0 and xi.components[0] == 1.0
    for held in (alpha.coeffs, xi.components):
        with pytest.raises(ValueError):
            held[0] = 9.0
    assert xi.components.dtype == np.float64
    with pytest.raises(ValueError, match="expected 16 coefficients"):
        Multivector(sig, np.zeros(8))
    with pytest.raises(ValueError, match="spinor must have 4 components"):
        Spinor(xi.rep, np.zeros(5))


def test_a_multivector_scales_only_by_a_real_number():
    # "2" once scaled by 2.0 and True by 1.0, through float()
    alpha = Multivector(Signature(3, 1), np.arange(16.0))
    for c in (2, -0.5, np.float64(1.5), np.float32(0.25), np.int64(3)):
        for scaled in (alpha * c, c * alpha):
            assert np.array_equal(scaled.coeffs, alpha.coeffs * float(c))
    for c in ("2", True, False, np.bool_(True), None, 1j, alpha, np.array(2.0), np.array([2.0])):
        for product in (lambda: alpha * c, lambda: c * alpha):
            with pytest.raises(TypeError):
                product()


def test_paired_rep_holds_read_only_copies_of_its_pairings():
    # build_pairings shares one PairedRep per rep: negating its Bminus in place
    # once flipped the sign of every later (3,1) square in the process
    pr = build_pairings(build_rep(Signature(3, 1)))
    xi = Spinor(pr.rep, [0.5, -1.0, 2.0, 0.25])
    before = square(pr, "minus", 1, xi).alpha.coeffs.copy()
    plus, minus = pr.pairing("plus"), pr.pairing("minus")
    with pytest.raises(ValueError):
        minus.B[...] *= -1
    # nor can the flag be set back first: the pairings are sealed
    with pytest.raises(ValueError):
        minus.B.setflags(write=True)
    with pytest.raises(ValueError):
        plus.B[0, 0] = 2.0
    assert np.array_equal(square(pr, "minus", 1, xi).alpha.coeffs, before)
    Bplus = np.array(plus.B)
    twin = PairedRep(pr.rep, Bplus, minus.B, plus.sigma, minus.sigma)
    Bplus[0, 0] = 2.0
    assert twin.pairing("plus").B[0, 0] == plus.B[0, 0]
    assert not twin.pairing("minus").B.flags.writeable


def test_paired_rep_holds_each_pairings_constants(values):
    pr = values["PairedRep"]
    sig = pr.rep.sig
    for tag, s in (("plus", 1), ("minus", -1)):
        B, sigma, _, weight = pairing = pr.pairing(tag)
        assert pairing is pr.pairing(tag) and (pairing.B, pairing.sigma, pairing.s) == (B, sigma, s)
        assert np.array_equal(weight, s_transpose_signs(sig, s) - sigma)
        assert not B.flags.writeable and not weight.flags.writeable
    for tag in ("Plus", "", None, ["plus"]):
        with pytest.raises(ValueError, match="unknown pairing tag"):
            pr.pairing(tag)


def test_a_rebuilt_paired_rep_derives_its_own_constants(values):
    pr = values["PairedRep"]
    plus, minus = pr.pairing("plus"), pr.pairing("minus")
    flipped = PairedRep(pr.rep, plus.B, -minus.B, plus.sigma, -minus.sigma)
    weight = flipped.pairing("minus").weight
    assert np.array_equal(weight, s_transpose_signs(pr.rep.sig, -1) + minus.sigma)


def test_results_compare_by_value_and_unpack(values):
    report = values["SquareConditionsReport"]
    is_square, residual_symmetry, residual_rank_one, tol = report
    assert is_square and (residual_symmetry, tol) == (report.residual_symmetry, report.tol)
    assert report == verify_square_conditions(values["PairedRep"], "minus",
                                              values["Multivector"])
    spinor, kappa, residual = values["ReconstructionResult"]
    assert kappa == 1 and residual == values["ReconstructionResult"].residual
    assert np.allclose(abs(spinor.components), [0.5, 1.0, 2.0, 0.25], rtol=1e-12)
    sigma = values["PairedRep"].pairing("minus").sigma
    assert values["SquareResult"][1:] == (1, "minus", -1, sigma)


def test_reprs_name_the_shown_fields(values):
    assert repr(values["GammaRep"]) == "GammaRep(sig=Signature(p=3, q=1))"
    assert repr(values["Multivector"]) == "Multivector(sig=Signature(p=3, q=1))"
    assert repr(values["PairedRep"]) == (
        "PairedRep(rep=GammaRep(sig=Signature(p=3, q=1)))")


def _shared_arrays():
    """(name, array) for every array a value, a cache or a module constant hands its readers."""
    from kaspin import _kernels, clifford_rep, geometry_lab, lowdim, spinor_square

    for p, q in ((3, 1), (4, 4)):
        sig = Signature(p, q)
        yield from ((f"tables{sig}.{f}", a) for f, a in sig.tables()._asdict().items())
        for table in ("sign", "wedge_sign"):
            yield from ((f"split_plan{sig}.{table}", a) for a in _kernels.split_plan(p, q, table))
        yield from ((f"volume_signs{sig}", a) for a in _kernels.volume_signs(p, q))
    for name in ("_T", "_U", "_OMEGA"):
        yield name, getattr(clifford_rep, name)
    sig = Signature(3, 1)
    pr = build_pairings(build_rep(sig))
    yield from (("gammas", g) for g in pr.rep.gammas)
    yield "blade_table", pr.rep.blade_table
    for tag in ("plus", "minus"):
        B, _, _, weight = pr.pairing(tag)
        yield from ((f"pairing({tag}).B", B), (f"pairing({tag}).weight", weight))
    xi = Spinor(pr.rep, [0.5, -1.0, 2.0, 0.25])
    alpha = square(pr, "minus", 1, xi).alpha
    yield from (("Multivector.coeffs", Multivector.zero(sig).coeffs), ("Spinor", xi.components))
    yield "square", alpha.coeffs
    yield "reconstruct", reconstruct(pr, "minus", alpha).spinor.components
    yield "memo eta", spinor_square._tested(pr, "minus", alpha)[5]
    pair = lowdim.polyform_to_pair(alpha)
    flag = lowdim.pair_to_flag(pair)
    yield from (("pair.u", pair.u.coeffs), ("pair.l", pair.l.coeffs))
    yield from (("flag", w.coeffs) for w in flag.W1 + flag.W2 + flag.W3)
    yield from (("_grades", a) for a in lowdim._grades(sig))
    yield "_E4", lowdim._E4
    for name in ("_COFRAME", "_TIME_LAST", "_LO", "_HI", "_POLYFORM", "_TWO", "_THREE"):
        yield name, getattr(geometry_lab, name)
    rows, weights = geometry_lab._halton_constants()
    yield from (("_halton_constants", a) for a in (*rows, weights))
    yield "_halton_digits", geometry_lab._halton_digits(0, 5)
    for name in ("_COFRAME", "_TWO"):
        masks = tuple(getattr(geometry_lab, name).tolist())
        yield from ((f"_commutator_rows({name})", a) for a in geometry_lab._commutator_rows(masks))


def test_every_shared_array_is_sealed():
    # a read-only flag that a reader can set back would let a cached table, a memo key or a
    # constant change under every other reader
    arrays = list(_shared_arrays())
    assert len(arrays) > 60
    for name, arr in arrays:
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            arr.setflags(write=True)


def test_a_tested_polyform_cannot_change_under_the_memo():
    # the memo keys on alpha's identity: once, a coefficient written after the test changed
    # the polyform, and verify_square_conditions still answered from the memo
    pr = build_pairings(build_rep(Signature(3, 1)))
    alpha = square(pr, "minus", 1, Spinor(pr.rep, [0.5, -1.0, 2.0, 0.25])).alpha
    before = alpha.coeffs.copy()
    assert verify_square_conditions(pr, "minus", alpha).is_square
    with pytest.raises(ValueError):
        alpha.coeffs.setflags(write=True)
    with pytest.raises(ValueError):
        alpha.coeffs[0] = 5.0
    assert np.array_equal(alpha.coeffs, before)
