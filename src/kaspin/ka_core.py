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
immutable after construction and every operation is a pure function.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

MAX_DIM = 8


@dataclass(frozen=True, order=True)
class Signature:
    """Counts of +1 and -1 directions of the quadratic space."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be non-negative")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.d > MAX_DIM:
            raise ValueError(f"dense storage is capped at d <= {MAX_DIM}")

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


def _mask_key(mask):
    indices = [str(i + 1) for i in range(MAX_DIM) if mask >> i & 1]
    return ",".join(indices)


def _key_mask(key, d):
    """The blade mask of a basis key, accepted only as _mask_key spells it."""
    index = {str(i + 1): i for i in range(d)}
    parts = key.split(",") if key else []
    if all(part in index for part in parts):
        mask = sum(1 << index[part] for part in parts)
        # one spelling per blade: ascending, no repeats, no signs, spaces or zeros
        if _mask_key(mask) == key:
            return mask
    raise ValueError(f"bad basis key {key!r} for d={d}")


@dataclass(frozen=True)
class Multivector:
    """Dense element of the exterior algebra over a fixed signature."""

    sig: Signature
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a private read-only copy: np.array copies by default
        arr = np.array(self.coeffs, dtype=float)
        if arr.shape != (self.sig.n_blades,):
            raise ValueError(
                f"expected {self.sig.n_blades} coefficients, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

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
        return Multivector(self.sig, self.coeffs * float(scalar))

    __rmul__ = __mul__

    # -- serialization ---------------------------------------------------

    def to_json(self):
        # keep -0.0 so the round trip stays bit-exact
        kept = (self.coeffs != 0.0) | np.signbit(self.coeffs)
        entries = {_mask_key(mask): float(self.coeffs[mask]) for mask in np.flatnonzero(kept)}
        return json.dumps(
            {"p": self.sig.p, "q": self.sig.q, "coeffs": entries},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text) if isinstance(text, str) else text
        sig = Signature(int(payload["p"]), int(payload["q"]))
        coeffs = np.zeros(sig.n_blades)
        for key, value in payload.get("coeffs", {}).items():
            coeffs[_key_mask(key, sig.d)] = float(value)
        return cls(sig, coeffs)


# -- operations ------------------------------------------------------------


def wedge(a, b):
    """Exterior product."""
    a._check(b)
    t = a.sig.tables()
    return Multivector(a.sig, _kernels.product(a.coeffs, b.coeffs, t.wedge_sign, t.xor))


def geometric_product(a, b):
    """The quantized (Clifford) product on the exterior algebra."""
    a._check(b)
    t = a.sig.tables()
    return Multivector(a.sig, _kernels.product(a.coeffs, b.coeffs, t.sign, t.xor))


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


def hodge_star(a):
    """Hodge dual, *a := tau(a) <> nu with nu = e^1 ^ ... ^ e^d."""
    if a.sig.d % 2:
        raise ValueError("hodge_star is provided for even dimension only")
    return geometric_product(tau(a), Multivector.volume(a.sig))
