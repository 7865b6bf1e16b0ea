"""Why no localized traveling wave survives the cubic spectral flow.

Under the cubic flow the scattering coefficient b evolves by the phase
exp(t[(lambda^3 + lambda^-3) - conj(...)]) while a traveling-wave profile
moving at velocity c would force the translation phase
exp(-t(kappa conj(c) - conj(kappa) c)/2) instead.  Both are unit phases,
but their exponents are different functions of lambda: the mismatch

    m(lambda; c) = translation rate - cubic rate

is nonzero on open regions near lambda = 0 and infinity FOR EVERY c, so a
traveling wave needs b = 0 there -- and b = 0 on an open set propagates to
b = 0 everywhere, i.e. the profile scatters nothing and must vanish.

Run:  python demos/soliton_obstruction.py        (instant)
"""

import numpy as np

from nvscatter.verify import (soliton_mismatch, soliton_obstruction,
                              soliton_samples)

print(__doc__)

# 64 lambda in each of 0.01 < |lambda| < 0.1 and 10 < |lambda| < 100
lams = soliton_samples(np.random.default_rng(0))

print("fraction of sampled lambda with |m(lambda; c)| > 1e-8:")
for c in (0.0, 1.0, 4.0 + 3.0j, -2.5j):
    rec = soliton_obstruction(c, lams)
    print(f"  c = {c!s:>8}: {100 * rec.details['fraction']:5.1f}%  "
          f"-> {rec.status}")

print("\ntypical mismatch magnitudes along one ray (c = 1):")
for r in (0.02, 0.05, 0.5, 2.0, 20.0, 80.0):
    lam = r * np.exp(0.6j)
    print(f"  |lambda| = {r:6.2f}: |m| = {abs(soliton_mismatch(lam, 1.0)):.3e}")

print("""
Near 0 and infinity the cubic rate ~ |lambda|^3 (or |lambda|^-3) dwarfs the
linear-in-kappa translation rate, so the mismatch cannot cancel there no
matter which velocity c is tried.  The only lambda where m vanishes
identically lie on measure-zero symmetry sets (e.g. the real axis when c is
real) -- which is why the check above insists on generic complex samples.
""")
