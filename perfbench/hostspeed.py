"""Host speed probe: a fixed kernel timed next to every repeat.

On a shared 2-vCPU host the same train command ran up to 1.7x slower for
seconds to minutes at a time, with CPU time tracking wall time, so the
slowdown is the host's, not this process's. The benchmark times this kernel
just before and just after each repeat and scales the repeat's times by
`REFERENCE_S / kernel time`: times are reported as if the kernel took
`REFERENCE_S`. The kernel shares no code with quadtune, so a change to the
program moves the scaled figures exactly as it moves the raw ones.

In slow periods small numpy calls slowed by 1.6x, a wide matmul by 1.4x and
pure Python by 1.3x, so the kernel spends about a third of its time on each,
as the workloads mix them too.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on an unloaded 2-vCPU Xeon (AVX-512), one BLAS thread.
REFERENCE_S = 0.0105

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(32, 2))
_W = [_rng.normal(size=shape) for shape in ((2, 64), (64, 32), (32, 2))]
_WIDE_X = _rng.normal(size=(400, 256))
_WIDE_W = _rng.normal(size=(256, 256)) / 16.0


def kernel_seconds() -> float:
    """Time one pass of the kernel."""
    start = time.perf_counter()
    for _ in range(140):  # small-batch MLP forward and backward
        h1 = np.maximum(_X @ _W[0], 0.0)
        h2 = np.maximum(h1 @ _W[1], 0.0)
        out = h2 @ _W[2]
        p = np.exp(out - out.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        delta = (p @ _W[2].T) * (h2 > 0.0)
        _ = h1.T @ delta
    a = _WIDE_X
    for _ in range(3):  # wide matmuls
        a = np.maximum(a @ _WIDE_W, 0.0)
    total = 0
    for i in range(60_000):  # interpreter work
        total += i * i
    return time.perf_counter() - start
