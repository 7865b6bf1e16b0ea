"""Slow independent oracles and lookups for the Green's function g(z, lambda).

direct_symbol_quadrature integrates the defining 2D symbol integral by
brute force, without the residue reduction the library's evaluator uses;
reference_G_on_T is the unit-circle closed form through K0 and
reference_G_on_T_hankel the same through the Hankel function.
full_exp_tensor is the table product with one full exp per factor entry,
without the library's factoring and underflow floor.  wide_zone_tensor
replaces the library's six-term tail by Gauss panels out to a far cut-off
and a one-term E1 tail beyond it.
table_value and greens_G read one difference-grid entry of a table.
"""

import numpy as np
from scipy.special import exp1, hankel1, k0

from nvscatter.greens import (FOURPI2, _as_lambda, _graded_edges,
                              _panel_rule, _split_wide, singular_points)


def table_value(table, z: complex) -> complex:
    """Table lookup for z on the difference grid."""
    N, h = table.grid.N, table.grid.h
    i = round(z.real / h) + N
    j = round(z.imag / h) + N
    if not (0 <= i < 2 * N and 0 <= j < 2 * N):
        raise ValueError("z outside the difference grid")
    if abs(z.real - (i - N) * h) > 1e-9 * h or \
            abs(z.imag - (j - N) * h) > 1e-9 * h:
        raise ValueError("z is not a difference-grid node")
    return complex(table.samples[i, j])


def greens_G(table, z: complex) -> complex:
    """G(z, lambda) = exp(-(lambda conj(z) + z/lambda)/2) * g(z, lambda)."""
    lam = table.lam
    pref = np.exp(-0.5 * (lam * np.conj(z) + z / lam))
    return complex(pref * table_value(table, z))


def reference_G_on_T(r: float) -> complex:
    """G(z, lambda) for |lambda| = 1 as a function of r = |z| > 0.

    Equals (-i/4) H0^(1)(i r) = -K0(r) / (2 pi); the sign and 1/(2 pi)
    scale were pinned against direct quadrature of the defining symbol
    integral at lambda = 1 (see tests).
    """
    r = float(r)
    if r <= 0:
        raise ValueError("|z| must be positive")
    return complex(-k0(r) / (2.0 * np.pi))


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


def full_exp_residue(quad, xi2, x1):
    """The closed-form xi1 integral with one full exp(i p x1) per entry."""
    S, p1, p2 = quad._pole_data(xi2)
    pref = (np.pi / S)[:, None]
    out = np.empty((xi2.size, x1.size), dtype=complex)
    for cols, sign in ((x1 >= 0, 1.0), (x1 < 0, -1.0)):
        if not cols.any():
            continue
        x = x1[cols]
        terms = np.zeros((xi2.size, x.size), dtype=complex)
        rows = sign * p1.imag > 0
        terms[rows] = np.exp(1j * p1[rows, None] * x[None, :])
        rows = sign * p2.imag > 0
        terms[rows] -= np.exp(1j * p2[rows, None] * x[None, :])
        out[:, cols] = sign * pref * terms
    return out


def full_exp_tensor(quad, x):
    """g on x (rows) x x (cols) with one full exp per factor entry.

    The residue terms exp(i p x1) and the Fourier factors exp(i xi x2) of
    the inner xi2 zone are evaluated entry by entry, with no factoring and
    no underflow floor; the tail beyond xi_inner is the quadrature's own.
    Returns the (meaningless) truncated value at x1 = x2 = 0, like the
    table's tensor part.
    """
    x = np.asarray(x, dtype=float)
    F_in = np.exp(1j * np.outer(quad.nodes_in, x)) * quad.w_in[:, None]
    g = full_exp_residue(quad, quad.nodes_in, x).T @ F_in
    tailed = quad._tailed(x)
    g[tailed, :] += quad._tail(x[tailed, None], x[None, :])
    return -g / FOURPI2


def wide_zone_tensor(quad, x, x_extent, xi_outer=1760.0, chunk=4096):
    """g on x (rows) x x (cols) with Gauss panels out to |xi2| = xi_outer.

    The inner zone is full_exp_tensor's.  On the rows |x1| < 45/xi_inner,
    panels of the quadrature's order and width cap (set by x_extent, as in
    the quadrature) cover xi_inner < |xi2| < xi_outer on both sides, and
    beyond xi_outer the one-term tail pi exp(A x1 - i m x2) (E1((a - i x2)
    (X + m)) + E1((a + i x2)(X - m))), a = |x1|, X = xi_outer, is added on
    the rows with a X < 40; it drops the O(xi^-3) part of pi/S.  This is
    the rule the six-term tail replaced, with xi_outer 4x its 440; on
    |lambda| = 1 at N = 128 that rule is within 1.0e-11 of the K0 closed
    form.  The panel sums run in chunks of outer nodes to bound memory.
    """
    x = np.asarray(x, dtype=float)
    F_in = np.exp(1j * np.outer(quad.nodes_in, x)) * quad.w_in[:, None]
    g = full_exp_residue(quad, quad.nodes_in, x).T @ F_in
    rows = np.abs(x) * quad.xi_inner < 45.0
    w_max = 2.0 * (quad.order - 3) / max(2.0 * x_extent, 4.0)
    hi = _split_wide(np.array([quad.xi_inner, xi_outer]), w_max)
    n_hi, w_hi = _panel_rule(hi, quad.order)
    nodes = np.concatenate([-n_hi[::-1], n_hi])
    weights = np.concatenate([w_hi[::-1], w_hi])
    for k in range(0, nodes.size, chunk):
        xi, w = nodes[k:k + chunk], weights[k:k + chunk]
        F = np.exp(1j * np.outer(xi, x)) * w[:, None]
        g[rows, :] += full_exp_residue(quad, xi, x[rows]).T @ F
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    tailed = (np.abs(x1) * xi_outer < 40.0) & (np.abs(x1) + np.abs(x2) > 0)
    a, y = np.abs(x1[tailed]), x2[tailed]
    g[tailed] += (np.pi * np.exp(quad.A * x1[tailed] - 1j * quad.m * y)
                  * (exp1((a - 1j * y) * (xi_outer + quad.m))
                     + exp1((a + 1j * y) * (xi_outer - quad.m))))
    return -g / FOURPI2
