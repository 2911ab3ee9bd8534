"""The reference kernel: a fixed computation, independent of diraclab, that
the timed loop runs before the first op and after every op.

On a shared host the same op can take 1.0x to 1.8x its fastest time, in
phases of seconds to minutes, and the slowdown hits every part of an op
alike.  An op's time divided by the kernel's time next to it cancels most
of that factor (README.md, "Why op time is relative").  The kernel mixes
the three kinds of work the package does: interpreter loops, a Python
loop of batched 2x2 complex products over 128 panels (the shape of
``ode.propagate``) and elementwise complex transcendentals on a 2.4-MB
array (the shape of ``ode.expm2`` on a large lambda batch).  It never
calls the package, so no change to the package can move it.
"""
from __future__ import annotations

import time

import numpy as np

PY_ITERS = 1_200_000
CHAIN_REPS = 140
CHAIN_BATCH = 8
PANELS = 128
ELEM_SIZE = 150_000

_rng = np.random.default_rng(1512)
# SU(2) panel factors, so the products neither overflow nor underflow
_a, _b, _d = _rng.uniform(0.0, 2 * np.pi, (3, CHAIN_BATCH, PANELS))
_c, _s = np.cos(_a) * np.exp(1j * _b), np.sin(_a) * np.exp(1j * _d)
_T = np.stack([np.stack([_c, _s], -1),
               np.stack([-np.conj(_s), np.conj(_c)], -1)], -2)
_Z = _rng.standard_normal(ELEM_SIZE) + 0.1j


def kernel():
    """One run of the fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for i in range(PY_ITERS):
        acc += (i % 7) * 0.5
    M = np.empty((CHAIN_BATCH, PANELS + 1, 2, 2), dtype=complex)
    for _ in range(CHAIN_REPS):
        M[:, 0] = np.eye(2)
        for k in range(PANELS):
            M[:, k + 1] = _T[:, k] @ M[:, k]
    return acc + abs(M[0, -1, 0, 0]) + abs(np.sum(np.cosh(np.sqrt(_Z))))


def seconds():
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
