"""A fixed reference computation that gauges how fast the machine runs right now.

The benchmark shares a small VM with other work, and the VM's speed swings
by up to 2x over seconds to hours.  That swing slows the program and this
probe alike, so the runner times the probe between configs and scales each
config's time by ``REF_PROBE_S / probe time``: times are reported as the
seconds they would take on a machine where the probe takes ``REF_PROBE_S``.

The probe mixes the program's three kinds of work: batched small-matrix
``einsum`` and ``eigh`` (the Christoffel solves), vector arithmetic (the
quadrature sums) and a Python loop of tiny numpy calls (``geometry_factor``).
It never calls phonoscat, so a change to the program cannot change it.
Neither the probe nor ``REF_PROBE_S`` may change once runs have been
compared, or old and new figures stop being comparable.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time that defines the reported unit; near the probe's median on a 2-core VM.
REF_PROBE_S = 0.02


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(20250924)
        self.c = rng.standard_normal((3, 3, 3, 3))
        self.k = rng.standard_normal((1024, 3))
        self.x = rng.standard_normal(40000)
        self.d = rng.standard_normal((3, 3, 3))
        self.e = rng.standard_normal(3)
        self.t = rng.standard_normal((3, 3))

    def __call__(self) -> float:
        """Run the reference computation once; return its wall time in seconds."""
        t0 = time.perf_counter()
        for _ in range(4):
            g = np.einsum("ijkl,nj,nk->nil", self.c, self.k, self.k)
            np.linalg.eigh(g + g.transpose(0, 2, 1))
            np.sum(np.exp(-self.x * self.x) * np.cos(self.x))
        for _ in range(400):
            float(np.einsum("i,ijk,jk->", self.e, self.d, self.t)) / float(np.sum(self.d * self.d))
        return time.perf_counter() - t0
