"""Slow independent oracles for the Green's function g(z, lambda).

direct_symbol_quadrature integrates the defining 2D symbol integral by
brute force, without the residue reduction the library's evaluator uses;
reference_G_on_T_hankel is the unit-circle closed form through the Hankel
function instead of K0.
"""

import numpy as np
from scipy.special import hankel1

from nvscatter.greens import (FOURPI2, _as_lambda, _graded_edges,
                              _panel_rule, singular_points)


def reference_G_on_T_hankel(r: float) -> complex:
    """Same reference through the Hankel-function route, for cross-checks."""
    return complex(-0.25j * hankel1(0, 1j * float(r)))


def _oracle_cutoff(r, rho):
    """Smooth radial taper: 1 inside rho/2, cos^2 roll-off, 0 outside rho."""
    t = r / rho
    w = np.where(t < 1.0, np.cos(0.5 * np.pi * np.clip(2.0 * t - 1.0,
                                                       0.0, 1.0)) ** 2, 0.0)
    return w


def _outer_taper(r, xi_max):
    """1 inside 0.7*xi_max, smooth cos^2 roll-off to 0 at xi_max."""
    t = np.clip((r / xi_max - 0.7) / 0.3, 0.0, 1.0)
    return np.cos(0.5 * np.pi * t) ** 2


def _one_sided_graded(lo, hi, delta, ratio=3.0):
    """Panel edges on [lo, hi] accumulating geometrically at lo."""
    edges = [lo]
    d = delta
    while lo + d < hi:
        edges.append(lo + d)
        d *= ratio
    edges.append(hi)
    return np.asarray(edges)


def _oracle_disk(z, lam, center, rho, order=12):
    """Polar-coordinate integral of the tapered symbol integrand on a disk.

    Near the disk center the denominator behaves like r*(r + i c(theta))
    with c(theta) = lam e^{-i theta} + e^{i theta}/lam, so the polar
    Jacobian cancels one factor of r.  On |lam| = 1 the remaining factor
    degenerates too: c vanishes at two critical angles (the two symbol
    zeros have merged).  Panels are therefore graded geometrically both
    toward r = 0 and toward those angles, which keeps the rule accurate
    uniformly across the unit circle.
    """
    phi = np.angle(lam)
    tcrit = [phi + 0.5 * np.pi, phi - 0.5 * np.pi]
    tedges = {0.0, 2.0 * np.pi}
    for tc in tcrit:
        tc = tc % (2.0 * np.pi)
        tedges.update(e % (2.0 * np.pi)
                      for e in _graded_edges(tc, tc - np.pi / 2, tc + np.pi / 2,
                                             delta=1e-10, ratio=3.0))
        tedges.add(tc)
    tedges.update(np.linspace(0.0, 2.0 * np.pi, 65))
    theta, wt = _panel_rule(np.array(sorted(tedges)), order)

    redges = _one_sided_graded(0.0, rho, delta=1e-12 * rho, ratio=3.0)
    r, wr = _panel_rule(redges, order)

    zeta = center + r[:, None] * np.exp(1j * theta)[None, :]
    den = np.abs(zeta) ** 2 + 1j * (lam * np.conj(zeta) + zeta / lam)
    phase = np.exp(1j * (zeta.real * z.real + zeta.imag * z.imag))
    f = phase / den * _oracle_cutoff(r, rho)[:, None] * r[:, None]
    return complex(np.sum(f * (wr[:, None] * wt[None, :])))


def direct_symbol_quadrature(z: complex, lam, xi_max: float = 300.0,
                             n: int = 12000, chunk: int = 64) -> complex:
    """Brute-force quadrature of the defining 2D symbol integral.

    Independent of the residue-based evaluator.  Smooth radial cutoffs carve
    out disks around the (one or two) real zeros of the denominator, which
    are integrated in polar coordinates; the remainder is smooth and handled
    by a plain midpoint rule.  The domain is truncated by a smooth outer
    roll-off (sharp truncation of the ~1/|xi|^2 tail rings like
    (xi_max |x|)^(-1/2); the smooth taper kills the ringing).  Slow.
    """
    lam = _as_lambda(lam)
    z = complex(z)
    sing = [complex(s) for s in singular_points(lam)]
    if len(sing) == 2:
        gap = abs(sing[1] - sing[0])
        rho = min(1.0, 0.4 * gap) if gap > 0 else 1.0
    else:
        rho = 1.0
    dxi = 2.0 * xi_max / n
    xi = -xi_max + (np.arange(n) + 0.5) * dxi
    total = 0.0 + 0.0j
    for start in range(0, n, chunk):
        xi1 = xi[start:start + chunk][:, None]
        xi2 = xi[None, :]
        zeta = xi1 + 1j * xi2
        den = (xi1**2 + xi2**2) + 1j * (lam * np.conj(zeta) + zeta / lam)
        taper = _outer_taper(np.abs(zeta), xi_max)
        for s in sing:
            taper = taper * (1.0 - _oracle_cutoff(np.abs(zeta - s), rho))
        phase = np.exp(1j * (xi1 * z.real + xi2 * z.imag))
        total += np.sum(phase / den * taper)
    total = total * dxi * dxi
    for s in sing:
        total += _oracle_disk(z, lam, s, rho)
    return complex(-total / FOURPI2)
