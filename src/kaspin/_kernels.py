"""Bitmask sign tables and the dense product kernels.

A basis subset I of {1..d} is a bitmask; the product of two basis
blades is e_I e_J = sign(I, J) * e_{I xor J}, where sign(I, J) counts
the transpositions needed to interleave the two ascending index lists
and multiplies in the squares of the repeated covectors. The tables
are exact (entries in {-1, 0, +1}), so float coefficients inherit no
rounding from the structure constants.

This is the only module that reads signs off bitmasks; everything else
here is sliced from the tables of `get_tables`. The square tables are
indexed by (I, K) with K the output blade, so the factor paired with e_I
is e_{I xor K}: out[K] = sum_I a[I] sign(I, I xor K) b[I xor K]. Two
kernels compute that sum, and `multiply` picks one by d alone
(`kernel_name`); both multiply every row of a stacked left operand:

* `product`, the flat kernel: one 2^d x 2^d gather of the right action
  R_b[I, K] = sign(I, I xor K) b[I xor K] and one matrix product, so
  a @ R_b multiplies every row of a stack a by b at once. It serves
  d < SPLIT_MIN_DIM.
* `split_product`, the split kernel, for d >= SPLIT_MIN_DIM: with I split
  into its high h and low L = ceil(d/2) bits, the algebra is the graded
  tensor product Cl(lo) (x) Cl(hi), and for either table

      e_I e_J = s_lo(I_lo, J_lo) s_hi(I_hi, J_hi) (-1)^(|I_hi| |J_lo|) e_{I xor J}

  Since |J_lo| = |I_lo| + |K_lo| mod 2, the graded sign splits into a
  twist of a's row I_hi and one of the output column K_lo. It gathers
  8 192 entries at d = 8 against the flat kernel's 65 536 (README, "The
  product kernels", lists its steps).
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

# the smallest d at which the split kernel beats the flat one, for a
# single left operand and for stacks (timings in README, "The product kernels")
SPLIT_MIN_DIM = 7


class ProductTables(NamedTuple):
    xor: np.ndarray  # (2^d, 2^d) gather index, xor[i, k] = i ^ k
    sign: np.ndarray  # (2^d, 2^d) sign of e_i e_{i^k}
    wedge_sign: np.ndarray  # same, zero where i and i^k overlap
    grade: np.ndarray  # (2^d,) number of covectors in each blade
    metric: np.ndarray  # (2^d,) <e_I, e_I>, the induced metric diagonal
    pi: np.ndarray  # (2^d,) grade involution, (-1)^k on grade k
    tau: np.ndarray  # (2^d,) reversion, (-1)^(k(k-1)/2)
    pi_tau: np.ndarray  # (2^d,) pi o tau, (-1)^(k(k+1)/2)


class SplitPlan(NamedTuple):
    # (2^L, 2^d) index into [b, -b, 0]: at [i_lo, (j_hi, k_lo)] it picks
    # s_lo(i_lo, i_lo ^ k_lo) b[(j_hi, i_lo ^ k_lo)]
    gather: np.ndarray
    twist: np.ndarray  # (2^h, 2^L) (-1)^(|i_hi| |i_lo|), applied to a
    rows: np.ndarray  # (2^h * 2^h,) at (i_hi, k_hi), the row (i_hi, i_hi ^ k_hi)
    outer: np.ndarray  # (2^h, 2^h, 2^L) s_hi(i_hi, i_hi ^ k_hi) (-1)^(|i_hi| |k_lo|)


class VolumeSigns(NamedTuple):
    left: np.ndarray  # nu <> a = left * a[::-1]
    star: np.ndarray  # tau(a) <> nu = star * a[::-1]


def sealed(arr):
    """A read-only copy of arr over an immutable bytes buffer.

    numpy refuses setflags(write=True) on it and on every view of it, so
    a cached table or a value's array cannot change under its readers.
    """
    out = np.frombuffer(arr.tobytes(), arr.dtype)
    # a 1-D array skips the reshape, which costs about 0.2 us per call
    return out if arr.ndim == 1 else out.reshape(arr.shape)


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
    tables = (xor.astype(np.intp), sign, wedge_sign, k, metric, pi, tau, pi * tau)
    return ProductTables._make(map(sealed, tables))


def product(a, b, sign, xor):
    """out[..., k] = sum_i a[..., i] sign[i, k] b[i ^ k], for either sign table.

    a may carry leading batch axes; each row is multiplied by the one b.
    The gathered matrix is built in place, the only 2^d x 2^d float
    array the call allocates.
    """
    right = b[xor]
    right *= sign
    return a @ right


@lru_cache(maxsize=None)
def split_plan(p, q, table):
    """The split kernel's index and sign arrays for get_tables(p, q).<table>.

    s_lo is the table's top-left 2^L x 2^L block and s_hi its block on
    the masks with no low bit; the graded sign reads off the pi table.
    """
    t = get_tables(p, q)
    sign = getattr(t, table)
    d = p + q
    low = (d + 1) // 2
    nl, nh, n = 1 << low, 1 << (d - low), 1 << d
    hi = np.arange(nh)
    high_masks = hi << low
    s_lo = sign[:nl, :nl]
    # [i, j_hi, k]: entry (j_hi, i ^ k) of b, of -b where s_lo is -1, or the 0 past both
    gather = (n * (s_lo < 0))[:, None, :] + (hi * nl)[None, :, None] + t.xor[:nl, :nl][:, None, :]
    gather = np.where((s_lo == 0)[:, None, :], 2 * n, gather).reshape(nl, n)
    graded = np.where(t.grade[high_masks, None] % 2 == 1, t.pi[:nl], 1.0)
    rows = (hi[:, None] * nh + t.xor[:nh, :nh]).ravel()
    s_hi = sign[np.ix_(high_masks, high_masks)]
    outer = s_hi[:, :, None] * graded[:, None, :]
    return SplitPlan._make(map(sealed, (gather, graded, rows, outer)))


def split_product(a, b, plan):
    """The sum `product` computes, through the graded split of the blade basis.

    a may carry leading batch axes, as for `product`.
    """
    nh, nl = plan.twist.shape
    batch = a.shape[:-1]
    signed = np.concatenate((b, -b, [0.0]))
    # by_hi[..., i_hi, (j_hi, k_lo)]: the low factor's sum over i_lo, for every pair
    # (i_hi, j_hi); the high factor needs only j_hi = i_hi ^ k_hi of them
    by_hi = (a.reshape(*batch, nh, nl) * plan.twist) @ signed[plan.gather]
    paired = np.take(by_hi.reshape(*batch, nh * nh, nl), plan.rows, axis=-2)
    paired = paired.reshape(*batch, nh, nh, nl)
    paired *= plan.outer
    return paired.sum(axis=-3).reshape(a.shape)


def kernel_name(d):
    """The kernel `multiply` takes at dimension d: "split" from SPLIT_MIN_DIM on, else "flat"."""
    return "split" if d >= SPLIT_MIN_DIM else "flat"


def multiply(a, b, p, q, table):
    """out[..., k] = sum_i a[..., i] table[i, k] b[i ^ k] at signature (p, q).

    table is "sign" for the geometric product, "wedge_sign" for the
    wedge; a may carry leading batch axes. The kernel is kernel_name(p + q).
    """
    if kernel_name(p + q) == "split":
        return split_product(a, b, split_plan(p, q, table))
    t = get_tables(p, q)
    return product(a, b, getattr(t, table), t.xor)


@lru_cache(maxsize=None)
def volume_signs(p, q):
    """Products with the volume blade nu as signed reversals of a.

    nu <> a has a[full ^ k] = a[::-1][k] at k with sign(full, k);
    tau(a) <> nu has it with tau(full ^ k) sign(full ^ k, k).
    """
    t = get_tables(p, q)
    full = (1 << (p + q)) - 1
    masks = np.arange(full + 1)
    return VolumeSigns(sealed(t.sign[full]), sealed(t.tau[::-1] * t.sign[full ^ masks, masks]))
