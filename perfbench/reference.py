"""Reference kernels: fixed work that shows how fast the machine runs right now.

On a shared host one core's speed changes by up to 1.9 times, in spells of
seconds to minutes, and code of different kinds slows by different amounts.
Measured on a 2-vCPU Intel Xeon virtual machine: numpy work on arrays of tens
of MB (the SCM scan) slowed by 1.35-1.4 times, interpreter and small-array
work (the GA searches, the grouping fits) by 1.7-2 times. The benchmark
times the kernel of a command's kind just before and just after the command
and scales the command's time by how fast the kernel ran (see ``scale``), so
that runs made in a slow spell and in a fast one compare. Over 55 single
jobs spread across 22 minutes of such spells, scaling cut the spread
(interquartile range over median) of the SCM scan's time from 0.21 to 0.08,
and of a small-node ``reproduce`` job from 0.55 to 0.14.

The kernels are code of this benchmark alone and never call the program, so
a change to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

_ORDER = np.random.default_rng(0).permutation(24).astype(np.int64)
_VALUES = np.sort(np.random.default_rng(1).random(24))
_SMALL = np.arange(64.0)


def _arrays() -> None:
    """Bipartition scores of 2^18 masks over 24 rows: arrays of tens of MB."""
    masks = np.arange(1 << 20, (1 << 20) + (1 << 18), dtype=np.int64) << 1
    member = ((masks[:, None] >> _ORDER[None, :]) & 1).astype(np.int32)
    k = member.sum(axis=1)
    sgn = np.sign(2 * member.cumsum(axis=1) - (k + 1)[:, None]) * member
    int((sgn.astype(np.float64) @ _VALUES).argmin())


def _interpreter() -> None:
    """A pure-Python loop and many numpy calls on a 64-element array."""
    s = 0
    for i in range(200_000):
        s += i * i
    for _ in range(1500):
        float((_SMALL * 2.0 + 1.0).sum())


# kind -> (kernel, repeats per sample, its time in a fast spell on the host above)
KERNELS = {
    "arrays": (_arrays, 2, 0.14),
    "interpreter": (_interpreter, 3, 0.016),
}


def kind_of(step: str) -> str:
    """The kernel kind whose speed a CLI command's time is scaled by."""
    return "arrays" if step == "scm" else "interpreter"


def sample(kind: str) -> float:
    """Fastest of a few runs of the kernel of ``kind``, in seconds."""
    kernel, repeats, _ = KERNELS[kind]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(kind: str, before: float, after: float) -> float:
    """Factor that turns a command time measured between two kernel samples
    into seconds in a fast spell: the kernel's fast-spell time over the mean
    of the samples."""
    return KERNELS[kind][2] / ((before + after) / 2)
