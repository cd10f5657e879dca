"""The reference speed that every time metric is expressed at.

The speed of a shared CPU drifts by up to 2x over seconds. The benchmark
therefore times a fixed reference kernel next to every command and scales
the command's time by REFERENCE_KERNEL_S over the kernel's time: the
result is the time the command would take at a speed where the kernel
takes exactly REFERENCE_KERNEL_S. The kernel must never change, or runs
stop comparing.
"""

from __future__ import annotations

import math
import time

REFERENCE_KERNEL_S = 0.004


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work like the workloads' own:
    256-wide numpy expressions and scalar float math in Python loops."""
    import numpy as np

    x = np.linspace(0.0, 6.0, 256)
    start = time.perf_counter()
    acc = 0.0
    for i in range(300):
        a = np.cos(x * 1.5 + i)
        b = np.sqrt(a * a + 1.0)
        acc += float(np.where(b > 1.2, a, b)[3])
        for j in range(16):
            acc += math.sin(j * 0.1 + acc * 1e-9) * 0.5
    return time.perf_counter() - start
