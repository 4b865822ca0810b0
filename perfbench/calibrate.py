"""Machine-speed calibration for a shared, noisy host.

On a shared 2-vCPU VM, speed was measured to change by up to half over
minutes, for every process alike (CPU time equals wall time, so it is not
preemption the guest can see).  A fixed kernel that shares the benchmark's
mix of work (FFTs on the workloads' small grids, interpreter overhead) is
timed between operations; dividing each operation's time by the kernel
times around it cancels the drift.  The kernel does not use stochpe, so no
change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time that defines the reference speed: normalised durations are
# durations on a machine where ``kernel`` takes exactly this long
REFERENCE_S = 0.006


def kernel() -> float:
    # FFTs on the padded grids of the 8^3-mode and 3^3-mode presets, then an
    # interpreter loop
    x = np.linspace(0.0, 1.0, 25 * 25 * 13).reshape(25, 25, 13)
    for _ in range(8):
        x = np.real(np.fft.ifft2(np.fft.fft2(x, axes=(0, 1)), axes=(0, 1)))
    y = np.linspace(0.0, 1.0, 10 * 10 * 5).reshape(10, 10, 5)
    for _ in range(30):
        y = np.real(np.fft.ifft2(np.fft.fft2(y, axes=(0, 1)), axes=(0, 1)))
    s = float(x[0, 0, 0] + y[0, 0, 0])
    for i in range(20000):
        s += i * 0.5
    return s


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibrated:
    """Durations of a sequence of timed sections, each bracketed by kernel runs."""

    def __init__(self):
        self.raw = []
        self._kernel = [timed_kernel()]

    def add(self, seconds: float):
        """Record one section's duration; call right after the section ends."""
        self.raw.append(seconds)
        self._kernel.append(timed_kernel())

    @property
    def factors(self) -> list:
        """Reference speed over measured speed, from the kernels on either side."""
        k = self._kernel
        return [REFERENCE_S / (0.5 * (a + b)) for a, b in zip(k, k[1:])]

    @property
    def normalised(self) -> list:
        return [d * f for d, f in zip(self.raw, self.factors)]

    def __len__(self):
        return len(self.raw)
