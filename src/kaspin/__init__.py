"""Quantized exterior algebra with real Clifford modules, spinor
squaring/reconstruction, and chart-level Lorentzian residual checks."""

from .ka_core import (
    FormMetric,
    Multivector,
    Multiplier,
    Signature,
    contract,
    geometric_product,
    hodge_star,
    ka_trace,
    multiplier,
    pi,
    pi_tau,
    tau,
    wedge,
)

__version__ = "0.1.0"

__all__ = [
    "FormMetric",
    "Multivector",
    "Multiplier",
    "Signature",
    "contract",
    "geometric_product",
    "hodge_star",
    "ka_trace",
    "multiplier",
    "pi",
    "pi_tau",
    "tau",
    "wedge",
    "__version__",
]
