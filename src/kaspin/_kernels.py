"""Bitmask sign tables and the dense product kernel.

A basis subset I of {1..d} is a bitmask; the product of two basis
blades is e_I e_J = sign(I, J) * e_{I xor J}, where sign(I, J) counts
the transpositions needed to interleave the two ascending index lists
and multiplies in the squares of the repeated covectors. The tables
are exact (entries in {-1, 0, +1}), so float coefficients inherit no
rounding from the structure constants.

This is the only module that reads signs off bitmasks. The square
tables are indexed by (I, K) with K the output blade, so the factor
paired with e_I is e_{I xor K} and every product is one gather and one
matrix-vector product: out[K] = sum_I a[I] sign(I, I xor K) b[I xor K].
The gathered matrix R_b[I, K] = sign(I, I xor K) b[I xor K] is the right
action of b, so a @ R_b multiplies every row of a stack a by b at once.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np


class ProductTables(NamedTuple):
    xor: np.ndarray  # (2^d, 2^d) gather index, xor[i, k] = i ^ k
    sign: np.ndarray  # (2^d, 2^d) sign of e_i e_{i^k}
    wedge_sign: np.ndarray  # same, zero where i and i^k overlap
    grade: np.ndarray  # (2^d,) number of covectors in each blade
    metric: np.ndarray  # (2^d,) <e_I, e_I>, the induced metric diagonal
    pi: np.ndarray  # (2^d,) grade involution, (-1)^k on grade k
    tau: np.ndarray  # (2^d,) reversion, (-1)^(k(k-1)/2)
    pi_tau: np.ndarray  # (2^d,) pi o tau, (-1)^(k(k+1)/2)


def _parity_sign(count):
    return 1.0 - 2.0 * (count & 1)


@lru_cache(maxsize=None)
def get_tables(p, q):
    d = p + q
    # the smallest unsigned type that holds a mask keeps the n x n
    # temporaries of the build small; the cached tables are widened
    masks = np.arange(1 << d, dtype=np.min_scalar_type((1 << d) - 1))
    grade = np.zeros_like(masks)
    for bit in range(d):
        grade += masks >> bit & 1
    xor = masks[:, None] ^ masks[None, :]
    # moving each covector of the right factor past the larger ones of
    # the left factor: bit b of i ^ k meets grade(i >> (b + 1)) of them
    swaps = np.zeros_like(xor)
    for bit in range(d):
        swaps += (xor >> bit & 1) * grade[masks >> (bit + 1)][:, None]
    common = masks[:, None] & xor
    wedge_sign = np.where(common == 0, _parity_sign(swaps), 0.0)
    # each repeated covector beyond the first p squares to -1
    sign = _parity_sign(swaps + grade[common >> p])
    metric = _parity_sign(grade[masks >> p])
    k = grade.astype(np.int64)
    pi, tau = _parity_sign(k), _parity_sign(k * (k - 1) // 2)
    tables = ProductTables(xor.astype(np.intp), sign, wedge_sign, k, metric, pi, tau, pi * tau)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def product(a, b, sign, xor):
    """out[..., k] = sum_i a[..., i] sign[i, k] b[i ^ k], for either sign table.

    a may carry leading batch axes; each row is multiplied by the one b.
    The gathered matrix is built in place, the only 2^d x 2^d float
    array the call allocates.
    """
    right = b[xor]
    right *= sign
    return a @ right
