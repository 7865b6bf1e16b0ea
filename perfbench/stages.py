#!/usr/bin/env python3
"""Seconds per pipeline stage for one lambda, both determinant backends.

    python3 perfbench/stages.py            # N = 64 and N = 128

Gaussian A = 0.5, sigma = 1 on R = 8 at lambda = 0.45 e^{0.7i}, the point
the README's reference figures use.  Prints one line per N; each stage is
timed once, in pipeline order, in a fresh process per N.
"""

import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def stages(n: int) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from nvscatter import (build_greens_table, build_kernel, make_grid,
                           modified_fredholm_det, sample_potential, solve_mu)
    from nvscatter.scattering import compute_a, compute_b

    grid = make_grid(8.0, n)
    v = sample_potential(grid, "gaussian", {"A": 0.5, "sigma": 1.0})
    lam = 0.45 * np.exp(0.7j)
    times = {}

    def timed(name, fn, *args, **kw):
        t = time.perf_counter()
        out = fn(*args, **kw)
        times[name] = time.perf_counter() - t
        return out

    table = timed("table", build_greens_table, grid, lam)
    mu = timed("mu", solve_mu, v, table)
    timed("ab", lambda: (compute_a(v, mu), compute_b(v, mu)))
    kern = timed("kernel", build_kernel, v, table)
    eig = timed("det_eigen", modified_fredholm_det, kern)
    lu = timed("det_lu", modified_fredholm_det, kern, method="lu")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cols = " ".join(f"{k}={v:.3f}s" for k, v in times.items())
    return (f"N={n} {cols} mu_iters={mu.iterations} support={kern.size} "
            f"rank={eig.n_eigs} |eigen-lu|={abs(eig.delta - lu.delta):.1e} "
            f"peak_rss={peak:.0f}MB")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(stages(int(sys.argv[1])))
    else:
        for n in (64, 128):
            subprocess.run([sys.executable, __file__, str(n)], check=True)
