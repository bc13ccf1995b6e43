"""Quantized exterior algebra with real Clifford modules, spinor
squaring/reconstruction, and chart-level Lorentzian residual checks."""

from .ka_core import (
    Multivector,
    Signature,
    contract,
    geometric_product,
    hodge_star,
    inner,
    ka_trace,
    pi,
    pi_tau,
    tau,
    wedge,
)

__version__ = "0.1.0"

__all__ = [
    "Multivector",
    "Signature",
    "contract",
    "geometric_product",
    "hodge_star",
    "inner",
    "ka_trace",
    "pi",
    "pi_tau",
    "tau",
    "wedge",
    "__version__",
]
