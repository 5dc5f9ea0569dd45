"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark host is a share of a machine whose speed shifts by regime:
each vCPU slows on its own, by up to a third, for tens of seconds at a
time. Two runs of the same code therefore differ more than a regression
bound allows. The worker runs this kernel on the op's vCPU right before
and right after every op (and after set-up), and the end-to-end times are reported at the
reference speed: the measured time multiplied by ``UNIT_S / unit time``.
A regime that slows the op slows the reference around it about as much,
so the ratio keeps the op's cost and drops most of the host's swing. The
raw wall times are reported in the details line beside the scaled ones.

One unit mixes the three kinds of work entgeo's ops are made of: a
pure-Python loop over frozensets and a dict, numpy calls on 8x8 matrices
where per-call overhead dominates, and one LAPACK eigendecomposition of a
192x192 matrix. Its amount of work is fixed; nothing in it calls entgeo.
"""

from __future__ import annotations

import time

import numpy as np

# Median unit time on the baseline host (Intel Xeon, 2 vCPUs, one BLAS
# thread, Python 3.11, numpy 2.4). Scaled times read as times on that
# host in a typical regime.
UNIT_S = 0.0075
# reference time around an op, as a share of the op's time (half before,
# half after)
SHARE = 0.25

_rng = np.random.default_rng(20221027)
_SMALL = [m + m.conj().T for m in
          (_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(20))]
_BIG = _rng.standard_normal((192, 192))
_BIG = _BIG + _BIG.T


def unit() -> None:
    """One unit of reference work."""
    table: dict[frozenset, float] = {}
    acc = 0.0
    for i in range(4000):
        key = frozenset((i, i + 1, i + 2))
        table[key] = i * 0.5
        acc += len(key) * 1.5
    for m in _SMALL:
        np.linalg.eigvalsh(m)
        np.kron(m[:2, :2], m[:2, :2]).trace()
    np.linalg.eigh(_BIG)


def gauge(busy_s: float) -> float:
    """Mean seconds per unit, over at least one unit and at least
    ``SHARE * busy_s`` seconds of them."""
    n = 0
    t0 = time.perf_counter()
    while True:
        unit()
        n += 1
        spent = time.perf_counter() - t0
        if spent >= SHARE * busy_s:
            return spent / n


def scale(seconds: float, unit_s: float) -> float:
    """A time measured while units took ``unit_s``, at the reference speed."""
    return seconds * UNIT_S / unit_s
