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


def test_paired_rep_holds_read_only_copies_of_its_pairings():
    # build_pairings shares one PairedRep per rep: negating its Bminus in place
    # once flipped the sign of every later (3,1) square in the process
    pr = build_pairings(build_rep(Signature(3, 1)))
    xi = Spinor(pr.rep, [0.5, -1.0, 2.0, 0.25])
    before = square(pr, "minus", 1, xi).alpha.coeffs.copy()
    with pytest.raises(ValueError):
        pr.pairing("minus")[0] *= -1
    with pytest.raises(ValueError):
        pr.Bplus[0, 0] = 2.0
    assert np.array_equal(square(pr, "minus", 1, xi).alpha.coeffs, before)
    Bplus = np.array(pr.Bplus)
    twin = PairedRep(pr.rep, Bplus, pr.Bminus, pr.sigma_plus, pr.sigma_minus)
    Bplus[0, 0] = 2.0
    assert twin.Bplus[0, 0] == pr.Bplus[0, 0] and not twin.Bminus.flags.writeable


def test_paired_rep_holds_each_pairings_constants(values):
    pr = values["PairedRep"]
    sig = pr.rep.sig
    for tag, B, sigma, s in (("plus", pr.Bplus, pr.sigma_plus, 1),
                             ("minus", pr.Bminus, pr.sigma_minus, -1)):
        got_B, got_sigma, got_s, weight = pr.pairing(tag)
        assert got_B is B and (got_sigma, got_s) == (sigma, s)
        assert (pr.B(tag), pr.sigma(tag), pr.s(tag)) == (B, sigma, s)
        assert np.array_equal(weight, s_transpose_signs(sig, s) - sigma)
        assert not weight.flags.writeable
    for tag in ("Plus", "", None, ["plus"]):
        with pytest.raises(ValueError, match="unknown pairing tag"):
            pr.pairing(tag)


def test_a_rebuilt_paired_rep_derives_its_own_constants(values):
    pr = values["PairedRep"]
    flipped = PairedRep(pr.rep, pr.Bplus, -pr.Bminus, pr.sigma_plus, -pr.sigma_minus)
    weight = flipped.pairing("minus")[3]
    assert np.array_equal(weight, s_transpose_signs(pr.rep.sig, -1) + pr.sigma_minus)


def test_results_compare_by_value_and_unpack(values):
    report = values["SquareConditionsReport"]
    is_square, residual_symmetry, residual_rank_one, tol = report
    assert is_square and (residual_symmetry, tol) == (report.residual_symmetry, report.tol)
    assert report == verify_square_conditions(values["PairedRep"], "minus",
                                              values["Multivector"])
    spinor, kappa, residual = values["ReconstructionResult"]
    assert kappa == 1 and residual == values["ReconstructionResult"].residual
    assert np.allclose(abs(spinor.components), [0.5, 1.0, 2.0, 0.25], rtol=1e-12)
    assert values["SquareResult"][1:] == (1, "minus", -1, values["PairedRep"].sigma_minus)


def test_reprs_name_the_shown_fields(values):
    assert repr(values["GammaRep"]) == "GammaRep(sig=Signature(p=3, q=1))"
    assert repr(values["Multivector"]) == "Multivector(sig=Signature(p=3, q=1))"
    assert repr(values["PairedRep"]) == (
        "PairedRep(rep=GammaRep(sig=Signature(p=3, q=1)), sigma_plus=-1, sigma_minus=-1)")
