"""Host speed, measured with fixed work that kaspin never runs.

A shared host runs everything slower, by up to a factor of two or three,
for seconds to minutes at a time, while other tenants load the same
cores; process CPU time slows with it, so it cannot be told apart from
the program's own cost by timing the program alone. The benchmark times
a meter right before and right after every window of ops and every
fresh process it times, and scales that timing by the meter's nominal
time over its mean time around it. A figure then reads as the time the
work would take on a host where the meter takes its nominal time.

Kinds of work move with the host by different amounts: on a 2-vCPU VM
the small loop's time nearly halved between two host states while a
(4,4) algebra op's fell by about a third and an import's by less, so one meter
over-corrects the others. Each workload therefore names the meter most
like its own work. LOOP, small dense products, gathers and reductions
in numpy driven from Python, scales algebra-small and campaigns;
PRODUCT, 256-blade products in the form of kaspin's numpy kernel on
random tables, scales algebra-large; IMPORT, a fresh interpreter's
`import numpy`, scales the fresh processes of cli-cold. The meters are the benchmark's
own work: a change to kaspin leaves them alone, so a regression in
kaspin raises the scaled figures as much as the raw ones.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

REPS = 25
PRODUCT_REPS = 9

_A = np.random.default_rng(0).standard_normal((16, 16))
_INDEX = np.random.default_rng(1).integers(0, 256, size=4096)
_V = np.random.default_rng(2).standard_normal(256)

# a 256-blade product in the form of kaspin's numpy kernel, on random tables
_N = 256
_XOR = np.random.default_rng(3).integers(0, _N, size=_N * _N)
_SIGN = np.random.default_rng(4).choice((-1.0, 1.0), size=(_N, _N))
_X, _Y = np.random.default_rng(5).standard_normal((2, _N))


class Meter(NamedTuple):
    name: str
    measure: Callable[[], float]
    nominal: float  # its time on an idle 2-vCPU x86-64 VM, Python 3.11, numpy 2.4, one BLAS thread


def _loop():
    s = 0.0
    for _ in range(30):
        b = _A @ _A
        s += float(np.sum(_V[_INDEX] * 0.5)) + b[0, 0]
    return s


def _products():
    s = 0.0
    for _ in range(4):
        s += np.bincount(_XOR, weights=(_SIGN * np.outer(_X, _Y)).ravel(), minlength=_N)[0]
    return s


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def loop_ms():
    """Median time of REPS runs of the small loop, in ms."""
    return _median_ms(_loop, REPS)


def product_ms():
    """Median time of PRODUCT_REPS runs of four 256-blade products, in ms."""
    return _median_ms(_products, PRODUCT_REPS)


def import_s():
    """Seconds from starting a fresh interpreter that imports numpy until it has exited."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.monotonic() - start


LOOP = Meter("loop_ms", loop_ms, 0.44)
PRODUCT = Meter("product_ms", product_ms, 1.0)
IMPORT = Meter("import_s", import_s, 0.12)
