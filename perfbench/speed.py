"""The machine's current speed, from a fixed calibration kernel.

On a shared virtual machine the same code can run 1.5x slower or faster
from one few-second stretch to the next, and slow stretches can last
minutes.  CPU time tracks wall time through them, so the virtual CPU
itself slows down, and no per-process clock can tell.  The benchmark
therefore times a fixed kernel next to each timed item and scales the
item's wall time to the speed at which the kernel takes ``REF_S``:

    scaled = wall * REF_S / kernel time around the item

A change to ``qnlp`` moves ``wall`` and leaves the kernel alone, so
it moves ``scaled`` by the same share; the machine's speed moves both
and cancels.  The kernel mixes what ``qnlp`` spends its time on:
interpreted loops with dict and integer work, and many small complex
NumPy products.  It imports nothing from ``qnlp``.
"""

import time

import numpy as np

REF_S = 0.05  # kernel time that defines one reference second

_LOOP = 160_000
_PRODUCTS = 1_200
_DIM = 64


def _kernel() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(_LOOP):
        table[i & 255] = acc
        acc += (i * i) % 7
    # unitary steps keep |v| at 1, away from subnormal arithmetic
    k = np.arange(_DIM)
    m = np.exp(2j * np.pi * np.outer(k, k) / _DIM) / np.sqrt(_DIM)
    phase = np.exp(1j * k)
    v = np.ones(_DIM, dtype=complex) / np.sqrt(_DIM)
    for _ in range(_PRODUCTS):
        v = np.einsum("ij,j,j->i", m, v, phase)
    return acc


def calibrate() -> float:
    """Wall time of one run of the fixed kernel, in seconds."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` in reference seconds, from the kernel times around it."""
    return wall * REF_S / (0.5 * (before + after))
