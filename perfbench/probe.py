"""Speed probe: how fast one CPU runs Python at the moment.

On a shared virtual machine the same Python code runs 20-40 % faster or
slower from one second to the next, as other tenants load the physical
core, and repeating a measurement does not average that away.  The
probe is a forked process that repeats one fixed stdlib-only step
(exact rationals, tuple-keyed dicts and complex floats: the mix of the
package's hot paths) at nice 19 on the CPU the benchmark is pinned to.
It gets about 1.5 % of that CPU, in slices spread over whatever else
runs there, so its CPU time per step tracks the speed that work sees.
It never calls the package, and its step cost does not follow the
memory footprint of the process it shares the CPU with.  Measured on a
2-vCPU virtual machine: next to a random walk over 2,000,000 ints it
cost 0.96 times what it cost next to a register-bound spin loop (median
of 12 alternations), and next to sym-constant-n5 and num-cg8 it cost
0.99 and 1.00 times what it cost next to sym-spectral-n4 (median of 6
back-to-back rounds).  So a change that adds memory traffic does not
hide its own cost in ``wall_ref`` by slowing the probe.  Short solo
bursts before and after each call do not track the speed well enough
instead: they spread wall_ref about four times as wide.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time
from fractions import Fraction

BATCH = 20
# Fewest steps a reading rests on; only windows shorter than about a
# tenth of a second (the tiny smoke sizes) wait for them after they end.
MIN_STEPS = 400


def _loop(shared, parent):
    os.nice(19)
    steps = 0
    while os.getppid() == parent:
        acc = {}
        total = Fraction(0)
        z = 0j
        for i in range(BATCH):
            key = (i % 7, i % 11, i % 3)
            total += Fraction(i % 13 + 1, i % 17 + 1)
            acc[key] = acc.get(key, 0) + total.numerator % 5
            z = z * 0.5 + complex(i % 5, 1)
        steps += BATCH
        struct.pack_into("qd", shared, 0, steps, time.process_time())


class SpeedProbe:
    """Runs the probe on the caller's CPU while the context is open."""

    def __enter__(self):
        self.shared = mmap.mmap(-1, 16)
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                _loop(self.shared, parent)
            finally:
                os._exit(0)
        while self.read()[0] < BATCH:
            time.sleep(0.001)
        return self

    def read(self):
        """(steps done, probe CPU seconds) so far."""
        return struct.unpack_from("qd", self.shared, 0)

    def step_s(self, since):
        """Probe CPU seconds per step since the reading ``since``."""
        steps0, cpu0 = since
        steps, cpu = self.read()
        while steps - steps0 < MIN_STEPS:
            time.sleep(0.001)
            steps, cpu = self.read()
        return (cpu - cpu0) / (steps - steps0)

    def __exit__(self, *exc):
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.shared.close()
