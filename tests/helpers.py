"""Inputs shared by the tests: the supported signatures, seeded samplers and fields.

The samplers draw from the Philox4x64-10 counter-based generator keyed
by (seed, stream). The algorithm is fixed (not "whatever the default
generator happens to be") so that a recorded seed reproduces the same
sample sequence everywhere.
"""

import numpy as np

from kaspin.geometry_lab import Field
from kaspin.ka_core import Multivector

# every signature build_rep accepts: d even, p - q in {0, 2}, d <= 8
REP_SIGS = [(2, 0), (1, 1), (3, 1), (2, 2), (4, 2), (3, 3), (4, 4), (5, 3)]


def make_rng(seed, stream=0):
    """Philox generator for the given seed and independent stream."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def random_multivector(sig, rng, grade=None):
    """Standard-normal coefficients, optionally restricted to one grade."""
    coeffs = rng.standard_normal(sig.n_blades)
    if grade is not None:
        coeffs[sig.tables().grade != grade] = 0.0
    return Multivector(sig, coeffs)


def closed_field(*parts, **kwargs):
    """A Field whose jet is parts (its value, then its partials) evaluated at x, one call each."""
    return Field(lambda x, order: tuple(np.asarray(part(x), dtype=float) for part in parts[:order + 1]),
                 **kwargs)
