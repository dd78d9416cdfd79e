"""Reference kernels that measure the machine's speed beside each pass.

On a shared host the speed of the same code drifts by tens of percent
over minutes, which is wider than any useful bound on raw wall time.
Each workload therefore names a fixed numpy kernel shaped like its
dominant work.  The worker times that kernel right after every pass and
inside every set-up probe, and the benchmark reports each time scaled by
``REF_S / kernel time``: the seconds it would take on a machine where
the kernel takes ``REF_S`` seconds.  The kernels use only numpy, never
``wy_stability``, so a change to the program does not move them.
numpy is imported only when a kernel is built, after the caller has
pinned BLAS to one thread.

    pencil  a Gram matrix B B^T over the grid nodes, then a dense
            symmetric eigensolve of it: the shape of assemble_pencil and
            min_pencil_eigenvalue (scan_l24) and of minimize_G's Gram
            build and solve (gform_l24)
    table   three basis-sized tables filled row by row from outer
            products, then read by matrix-vector products: the shape of
            build_basis and what follows it (cex_l48)
"""

from __future__ import annotations

import time

from workloads import grid_for

KERNELS = {"scan_l24": "pencil", "gform_l24": "pencil", "cex_l48": "table"}
# nominal kernel time, in seconds, near its median on the machine the bounds
# were set on (a 2-vCPU VM, one BLAS thread); a scaled time is
# raw time * REF_S / kernel time
REF_S = {"pencil": 0.20, "table": 0.25}
# repetitions of each kernel per timing, so that one timing takes about
# REF_S at the workloads' degree caps
REPS = {"pencil": 5, "table": 3}


def _pencil(L: int):
    import numpy as np

    n = (L + 1) ** 2 - 1
    nodes = (L + 1) * (2 * L + 2)
    b = np.random.default_rng(0).standard_normal((n, nodes))

    def run() -> float:
        gram = b @ b.T
        return float(np.linalg.eigvalsh(gram)[0])

    return run


def _table(L: int):
    import numpy as np

    n_theta, n_phi = grid_for(L)
    # half the basis rows: each table stays above glibc's 32 MB mmap
    # threshold at L=48, like the program's, but the kernel's peak memory
    # stays below the program's
    rows = max(1, (L + 1) ** 2 // 2)
    rng = np.random.default_rng(0)
    rad, ang, w = rng.random(n_theta), rng.random(n_phi), rng.random(n_theta * n_phi)

    def run() -> float:
        tables = [np.empty((rows, n_theta * n_phi)) for _ in range(3)]
        for k in range(rows):
            for t in tables:
                t[k] = np.outer(rad, ang).ravel()
        return float(sum((t @ w).sum() for t in tables))

    return run


def slowdown(name: str, L: int):
    """A function that times ``name``'s kernel at degree cap L once.

    It returns that time divided by the kernel's REF_S, the machine's
    slowdown at that moment: a raw time divided by it is a scaled time.
    """
    kind = KERNELS[name]
    kernel = {"pencil": _pencil, "table": _table}[kind](L)

    def timed() -> float:
        start = time.perf_counter()
        for _ in range(REPS[kind]):
            kernel()
        return (time.perf_counter() - start) / REF_S[kind]

    return timed
