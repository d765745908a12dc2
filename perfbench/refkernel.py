"""The reference kernel that puts the benchmark's times on a fixed scale.

On a shared host the speed at which this process runs drifts by tens of
percent over seconds to minutes.  The benchmark therefore times a fixed
piece of work next to every measurement and reports times in *reference
seconds*: the measured wall time scaled by ``REFERENCE_KERNEL_S`` over the
kernel's measured wall time.  On a host where the kernel takes
``REFERENCE_KERNEL_S`` they are plain wall seconds.  The kernel does the
kinds of work clawlab does (Python loops over small numpy calls,
large-array arithmetic, float formatting) and does not depend on clawlab,
so it is identical on every commit.
"""

from time import perf_counter

import numpy as np

REFERENCE_KERNEL_S = 0.1


class ReferenceKernel:
    """Calling the kernel runs it once and returns its wall seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random(1000)
        self.large = rng.random(200_000)

    def __call__(self) -> float:
        small, large = self.small, self.large
        t0 = perf_counter()
        for _ in range(1200):
            np.sin(small).sum()
        for _ in range(40):
            np.sqrt(large * large + 1.0).sum()
        for _ in range(12):
            ",".join(format(v, ".17g") for v in small)
        return perf_counter() - t0


def to_reference(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` of wall time measured next to a kernel run that took
    ``kernel_seconds``, in reference seconds."""
    return seconds * REFERENCE_KERNEL_S / kernel_seconds
