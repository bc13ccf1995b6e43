"""Dense multivector arithmetic over a real quadratic space.

Conventions, fixed once for the whole package:

* signature (p, q): the basis covectors e^1..e^p square to +1 under
  the dual metric, e^{p+1}..e^d square to -1;
* a basis subset {i_1 < ... < i_k} of {1..d} is stored at the bitmask
  with those bits set, and means e^{i_1} ^ ... ^ e^{i_k};
* orientation is e^1 ^ ... ^ e^d (the full mask), and the Hodge star
  is *a := tau(a) <> nu, so no second sign convention exists;
* one-forms multiply as theta <> a = theta ^ a + i_theta a, with
  theta <> theta = +<theta, theta>.

Coefficients are float64; the structure constants are exact signs, so
all rounding comes from coefficient arithmetic alone. Values are
immutable after construction: a Multivector holds a sealed copy of its
coefficients (_kernels.sealed), which no caller can make writable, and
every operation is a pure function.
"""

import json
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels

MAX_DIM = 8

# sets a slot of a _Frozen value, once, from its __init__
_set = object.__setattr__


class _Frozen:
    """Base of the immutable value classes: plain __slots__ classes, set once in __init__.

    A dataclass would generate the same methods with exec in every process
    that imports it, about 1 ms each; these are written once here.
    """

    __slots__ = ()
    _shown = ()  # the slots repr shows

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({shown})"


class _SignatureFields(NamedTuple):
    p: int
    q: int


class Signature(_SignatureFields):
    """Counts of +1 and -1 directions of the quadratic space.

    A (p, q) tuple, so signatures compare, order and hash by value.
    """

    __slots__ = ()

    def __new__(cls, p, q):
        if any(isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in (p, q)):
            raise ValueError(f"signature counts must be integers, got {p!r} and {q!r}")
        if p < 0 or q < 0:
            raise ValueError("signature counts must be non-negative")
        if p + q < 1:
            raise ValueError("dimension must be at least 1")
        if p + q > MAX_DIM:
            raise ValueError(f"dense storage is capped at d <= {MAX_DIM}")
        # plain ints, so a signature of numpy integers prints and serializes as any other
        return super().__new__(cls, int(p), int(q))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would bypass __new__'s checks
        return cls(*iterable)

    @property
    def d(self):
        return self.p + self.q

    @property
    def n_blades(self):
        return 1 << self.d

    def supports_rep(self):
        """Whether the representation modules accept this signature."""
        return self.d % 2 == 0 and self.p - self.q in (0, 2)

    def tables(self):
        return _kernels.get_tables(self.p, self.q)


@lru_cache(maxsize=None)
def _blade_keys():
    """(keys, masks): the basis key of every mask below 2^MAX_DIM ("1,3" for e^1 ^ e^3, "" for
    the scalar) and its inverse, mask by key. Built on first use."""
    keys = tuple(",".join(str(i + 1) for i in range(MAX_DIM) if mask >> i & 1)
                 for mask in range(1 << MAX_DIM))
    return keys, {key: mask for mask, key in enumerate(keys)}


def _key_mask(key, d):
    """The blade mask of a basis key, accepted only as _blade_keys spells it."""
    # one spelling per blade: ascending, no repeats, no signs, spaces or zeros
    mask = _blade_keys()[1].get(key, 1 << d)
    if mask >> d:
        raise ValueError(f"bad basis key {key!r} for d={d}")
    return mask


def json_number(name, value):
    """A JSON number as a float: a real number, never a bool, a string or null."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a JSON number, got {json.dumps(value, default=repr)}")
    return float(value)


class Multivector(_Frozen):
    """Dense element of the exterior algebra over a fixed signature."""

    __slots__ = ("sig", "coeffs")
    _shown = ("sig",)
    # numpy defers every operator to these methods, so an array operand is no scale either
    __array_ufunc__ = None

    def __init__(self, sig, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (sig.n_blades,):
            raise ValueError(f"expected {sig.n_blades} coefficients, got shape {arr.shape}")
        _set(self, "sig", sig)
        _set(self, "coeffs", _kernels.sealed(arr))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig):
        return cls(sig, np.zeros(sig.n_blades))

    @classmethod
    def scalar(cls, sig, value):
        coeffs = np.zeros(sig.n_blades)
        coeffs[0] = value
        return cls(sig, coeffs)

    @classmethod
    def basis(cls, sig, indices, value=1.0):
        """Basis monomial e^{i_1} ^ ... ^ e^{i_k}, ascending 1-based."""
        mask = 0
        prev = 0
        for i in indices:
            if i <= prev or not 1 <= i <= sig.d:
                raise ValueError(f"indices must be ascending in 1..{sig.d}")
            mask |= 1 << (i - 1)
            prev = i
        coeffs = np.zeros(sig.n_blades)
        coeffs[mask] = value
        return cls(sig, coeffs)

    @classmethod
    def covector(cls, sig, components):
        """Grade-1 element with the given d components."""
        components = np.asarray(components, dtype=float)
        if components.shape != (sig.d,):
            raise ValueError(f"expected {sig.d} components")
        coeffs = np.zeros(sig.n_blades)
        coeffs[1 << np.arange(sig.d)] = components
        return cls(sig, coeffs)

    @classmethod
    def volume(cls, sig):
        coeffs = np.zeros(sig.n_blades)
        coeffs[-1] = 1.0
        return cls(sig, coeffs)

    # -- views ---------------------------------------------------------

    def grade(self, k):
        return Multivector(self.sig, np.where(self.sig.tables().grade == k, self.coeffs, 0.0))

    def grades(self):
        # read off the grade table: np.unique would import numpy.ma on first use
        grade = self.sig.tables().grade
        present = np.bincount(grade[self.coeffs != 0.0], minlength=self.sig.d + 1)
        return np.flatnonzero(present).tolist()

    @property
    def scalar_part(self):
        return float(self.coeffs[0])

    def one_form_components(self):
        """The d grade-1 components, in basis order."""
        return self.coeffs[1 << np.arange(self.sig.d)]

    def norm_inf(self):
        return float(abs(self.coeffs).max())

    def allclose(self, other, tol=1e-12):
        if self.sig != other.sig:
            return False
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    # -- linear structure ----------------------------------------------

    def _check(self, other):
        if self.sig != other.sig:
            raise ValueError("signature mismatch")

    def __add__(self, other):
        self._check(other)
        return Multivector(self.sig, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return Multivector(self.sig, self.coeffs - other.coeffs)

    def __neg__(self):
        return Multivector(self.sig, -self.coeffs)

    def __mul__(self, scalar):
        # a real number only, as json_number takes it: a bool or a string is no scale
        if isinstance(scalar, bool) or not isinstance(scalar, numbers.Real):
            return NotImplemented
        return Multivector(self.sig, self.coeffs * float(scalar))

    __rmul__ = __mul__

    # -- serialization ---------------------------------------------------

    def to_json(self):
        # keep -0.0 so the round trip stays bit-exact
        kept = (self.coeffs != 0.0) | np.signbit(self.coeffs)
        keys = _blade_keys()[0]
        entries = {keys[mask]: float(self.coeffs[mask]) for mask in np.flatnonzero(kept)}
        return json.dumps(
            {"p": self.sig.p, "q": self.sig.q, "coeffs": entries},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text) if isinstance(text, str) else text
        sig = Signature(payload["p"], payload["q"])
        entries = payload.get("coeffs", {})
        if not isinstance(entries, dict):
            raise ValueError("polyform coeffs must be a JSON object")
        coeffs = np.zeros(sig.n_blades)
        for key, value in entries.items():
            coeffs[_key_mask(key, sig.d)] = json_number(f"coefficient {key!r}", value)
        return cls(sig, coeffs)


# -- operations ------------------------------------------------------------


def wedge(a, b):
    """Exterior product."""
    a._check(b)
    return Multivector(a.sig, _kernels.multiply(a.coeffs, b.coeffs, a.sig.p, a.sig.q, "wedge_sign"))


def geometric_product(a, b):
    """The quantized (Clifford) product on the exterior algebra."""
    a._check(b)
    return Multivector(a.sig, _kernels.multiply(a.coeffs, b.coeffs, a.sig.p, a.sig.q, "sign"))


def inner(a, b):
    """The metric induced on forms: sum_I <e_I, e_I> a_I b_I."""
    a._check(b)
    return float(np.dot(a.coeffs * a.sig.tables().metric, b.coeffs))


def contract(theta, a):
    """Interior product with the metric dual of the one-form theta.

    Defined by the splitting theta <> a = theta ^ a + i_theta a, which
    keeps it exactly consistent with the product's sign convention.
    """
    theta._check(a)
    if not theta.allclose(theta.grade(1), tol=0.0):
        raise ValueError("contract expects a homogeneous one-form")
    return geometric_product(theta, a) - wedge(theta, a)


def pi(a):
    """Grade involution: (-1)^k on grade k."""
    return Multivector(a.sig, a.coeffs * a.sig.tables().pi)


def tau(a):
    """Reversion: (-1)^(k(k-1)/2) on grade k."""
    return Multivector(a.sig, a.coeffs * a.sig.tables().tau)


def pi_tau(a):
    """The composite pi o tau: (-1)^(k(k+1)/2) on grade k."""
    return Multivector(a.sig, a.coeffs * a.sig.tables().pi_tau)


def ka_trace(a):
    """Algebra trace: 2^(d/2) times the scalar coefficient."""
    if a.sig.d % 2:
        raise ValueError("trace normalization requires even dimension")
    return float(2 ** (a.sig.d // 2) * a.coeffs[0])


def volume_product(a):
    """nu <> a with nu = e^1 ^ ... ^ e^d, a signed reversal of the coefficients."""
    return Multivector(a.sig, _kernels.volume_signs(a.sig.p, a.sig.q).left * a.coeffs[::-1])


def hodge_star(a):
    """Hodge dual, *a := tau(a) <> nu with nu = e^1 ^ ... ^ e^d."""
    if a.sig.d % 2:
        raise ValueError("hodge_star is provided for even dimension only")
    return Multivector(a.sig, _kernels.volume_signs(a.sig.p, a.sig.q).star * a.coeffs[::-1])
