"""Faddeev-type Green's function g(z, lambda) at energy -1.

g is defined by the 2D Fourier-symbol integral

    g(z, lambda) = -(2 pi)^-2 * integral exp(i xi . x) / D(xi, lambda)
    D(xi, lambda) = |zeta|^2 + i (lambda zeta_bar + zeta / lambda),

zeta = xi1 + i xi2, z = x1 + i x2.  The symbol denominator vanishes at
zeta = 0 and (off the unit circle) at one further point zeta0, so the
integrand has two integrable point singularities.

Numerical scheme: the xi1 integral is evaluated in closed form by residue
calculus.  D is a quadratic in xi1 whose roots are i*(-A +/- S) with
A = (lambda + 1/lambda)/2 and S = sqrt((xi2 + m)^2 + 1), m = (lambda -
1/lambda)/2, so for every xi2 the inner integral is a sum of at most two
exponentially decaying residue terms.  The remaining 1D xi2 integral is
smooth except at the finitely many points where a root crosses the real
axis (exactly the imaginary parts of the symbol singularities); it is done
by panelwise Gauss-Legendre quadrature graded geometrically toward those
breakpoints, out to |xi2| = xi_inner.  Beyond xi_inner only the rows with
|x1| < 45/xi_inner still see the integrand; there it is expanded to six
terms in 1/(xi2 +/- m), and each term integrates in closed form to an
exponential integral E_n, n <= 6, taken in the scaled form e^w E_n(w) so
that no factor can overflow.  The scheme stays uniformly accurate across
the unit circle |lambda| = 1, where the two symbol singularities collide
and naive 2D grid quadrature of the symbol breaks down.

On |lambda| = 1 the exact value is G(z, lambda) = -K0(|z|) / (2 pi).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from .grids import Grid

FOURPI2 = 4.0 * np.pi**2

# average of ln|u| over the unit square [-1/2, 1/2]^2
LOG_CELL_AVG = np.pi / 4.0 - 1.5 - 0.5 * np.log(2.0)

# the origin patch: cells with |d|_inf <= CELL_AVG_RADIUS hold cell averages,
# each from a CELL_AVG_ORDER x CELL_AVG_ORDER Gauss rule
CELL_AVG_RADIUS = 1
CELL_AVG_ORDER = 6

# block length of the table's factored exponentials, reduced to
# gcd(2N, TENSOR_BLOCK) for the 2N columns and gcd(N, TENSOR_BLOCK) for the
# N rows on each side of 0, so that the blocks tile them
TENSOR_BLOCK = 16

# Residue factors exp(z) with Re z < EXP_FLOOR are stored as exact 0 and
# never computed.  A residue term is the product of two such factors, so
# it is 0 or at least exp(2 EXP_FLOOR) = sqrt(tiny) ~ 1.5e-154 in modulus.
# That leaves 154 decimal orders for the pole coefficient pi/S, the Gauss
# weight and the real/imaginary split before a product in the GEMM could
# be subnormal, and subnormal operands make the products and the GEMM
# several times slower.  A dropped term is below exp(EXP_FLOOR) ~ 1e-77
# times its coefficient.  A property of IEEE doubles, not a tunable.
EXP_FLOOR = math.log(np.finfo(float).tiny) / 4.0

# a table whose error probe reads above this raises QuadratureError
ERROR_THRESHOLD = 1e-5

# the table rule's name in records and cache keys; a new rule gets a new id
RULE_ID = f"residue1d-gl16-tail6-avg{CELL_AVG_RADIUS}"


class QuadratureError(RuntimeError):
    """Raised when the symbol quadrature cannot meet its error target."""


def _as_lambda(lam) -> complex:
    lam = complex(lam)
    if lam == 0 or not np.isfinite(lam):
        raise ValueError("lambda must be nonzero and finite")
    return lam


def symbol_denominator(zeta, lam) -> complex:
    """Denominator of the Fourier symbol: |zeta|^2 + i(lam*conj(zeta) + zeta/lam)."""
    lam = _as_lambda(lam)
    zeta = np.asarray(zeta, dtype=complex)
    out = zeta * np.conj(zeta) + 1j * (lam * np.conj(zeta) + zeta / lam)
    return complex(out) if out.ndim == 0 else out


def singular_points(lam) -> list[complex]:
    """Roots of the symbol denominator: 0, and e^{i phi} i (1/s - s) off |lam|=1."""
    lam = _as_lambda(lam)
    s = abs(lam)
    phase = lam / s
    zeta0 = phase * 1j * (1.0 / s - s)
    if zeta0 == 0:
        return [0j]
    return [0j, complex(zeta0)]


# ---------------------------------------------------------------------------
# xi2 quadrature


def _breakpoints(lam: complex) -> list[float]:
    """xi2 values where an xi1-root of D crosses the real axis."""
    pts = sorted({float(np.imag(z)) for z in singular_points(lam)})
    return pts


def _graded_edges(center: float, reach_lo: float, reach_hi: float,
                  delta: float = 1e-14, ratio: float = 4.0) -> list[float]:
    """Geometric panel edges accumulating at `center` on both sides."""
    edges = [center]
    d = delta
    while center + d < reach_hi:
        edges.append(center + d)
        d *= ratio
    d = delta
    while center - d > reach_lo:
        edges.append(center - d)
        d *= ratio
    return edges


def _split_wide(edges: np.ndarray, w_max: float) -> np.ndarray:
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        k = int(np.ceil((b - a) / w_max))
        if k > 1:
            out.extend(np.linspace(a, b, k + 1)[1:])
        else:
            out.append(b)
    return np.asarray(out)


def _panel_rule(edges: np.ndarray, order: int):
    """Composite Gauss-Legendre nodes/weights on consecutive panels."""
    u, w = np.polynomial.legendre.leggauss(order)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = (mid + half * u[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights


def _floored_exp(z: np.ndarray) -> np.ndarray:
    """exp(z), exact 0 where Re z < EXP_FLOOR (those exps are skipped)."""
    return np.exp(z, out=np.zeros_like(z), where=z.real >= EXP_FLOOR)


def _tail_coefficients(a: np.ndarray) -> np.ndarray:
    """c_n(a), n < 6, of pi e^{-S a} / S = pi e^{-u a} sum_n c_n(a) u^(-n-1),
    S = sqrt(u^2 + 1); shape (6,) + a.shape."""
    a2 = a * a
    return np.array([np.ones_like(a),
                     -a / 2.0,
                     a2 / 8.0 - 0.5,
                     a * (3.0 / 8.0 - a2 / 48.0),
                     a2 * a2 / 384.0 - a2 / 8.0 + 3.0 / 8.0,
                     a * (-a2 * a2 / 3840.0 + 5.0 * a2 / 192.0 - 5.0 / 16.0)])


def _scaled_expn(w: np.ndarray, n: int) -> np.ndarray:
    """e^w E_k(w) for k = 1..n, shape (n,) + w.shape, for w != 0 off the
    negative real axis.

    Where |w| < 2, or Re w < 0 and |w| < 80: e^w E_1(w) from scipy's
    exp1, then upward recurrence e_{k+1} = (1 - w e_k) / k.  Its relative
    error grows like |w|^(k-1) / (k-1)!: for k = 6 it reaches 1.8e-8 just
    inside |w| = 80 next to the negative real axis, where _tail weighs e_6
    by |U|^-5 <= 40^-5.  Elsewhere e_n comes from the even continued
    fraction of E_n (modified Lentz, each entry iterated until it has
    converged: at most 81 iterations there for n = 6), then downward
    recurrence e_k = (1 - k e_{k+1}) / w, which amplifies relative errors
    by at most 5!/|w|^5 < 4 there.  The continued fraction is not used
    next to the negative real axis at moderate |w|, where it converges
    slowly (over 10^4 iterations at |w| = 5, arg w = 3.1).
    """
    w = np.asarray(w, dtype=complex)
    out = np.empty((n,) + w.shape, dtype=complex)
    r = np.abs(w)
    up = (r < 2.0) | ((w.real < 0) & (r < 80.0))
    x = w[up]
    e = np.exp(x) * exp1(x)
    for k in range(n):
        out[k][up] = e
        e = (1.0 - x * e) / (k + 1)

    x = w[~up]
    todo = np.arange(x.size)
    b = x + n
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    f = d.copy()
    e = np.empty_like(b)
    for i in range(1, 501):
        if not todo.size:
            break
        an = -i * (n - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        f = f * step
        done = np.abs(step - 1.0) < 4.0 * np.finfo(float).eps
        e[todo[done]] = f[done]
        todo, b, c, d, f = (v[~done] for v in (todo, b, c, d, f))
    if todo.size:
        raise QuadratureError(f"E_{n} continued fraction did not converge "
                              f"at w = {x[todo[0]]}")
    for k in range(n, 0, -1):
        out[k - 1][~up] = e
        e = (1.0 - (k - 1) * e) / x
    return out


class _SymbolQuadrature:
    """Residue-reduced evaluator of g(z, lambda) at arbitrary points.

    Gauss panels cover the inner zone |xi2| <= xi_inner, which every target
    point uses; beyond it the six-term tail (_tail) is added in closed form
    on the rows that need it.  refine = 2 doubles both the Gauss order and
    xi_inner.
    """

    def __init__(self, lam, x_extent: float, refine: int = 1):
        self.lam = _as_lambda(lam)
        self.A = 0.5 * (self.lam + 1.0 / self.lam)
        self.m = 0.5 * (self.lam - 1.0 / self.lam)
        self.order = 16 * int(refine)
        bps = _breakpoints(self.lam)
        b_max = max(abs(b) for b in bps)
        # panel width cap resolving exp(i xi2 x2) and the x1-induced phase
        osc = max(2.0 * x_extent, 4.0)
        w_max = 2.0 * (self.order - 3) / osc
        self.xi_inner = int(refine) * max(60.0, b_max + 40.0)

        edges = {-self.xi_inner, self.xi_inner}
        for b in bps:
            edges.update(_graded_edges(b, -self.xi_inner, self.xi_inner))
        inner_edges = _split_wide(np.array(sorted(edges)), w_max)
        self.nodes_in, self.w_in = _panel_rule(inner_edges, self.order)

    # -- residue sum over the inner xi1 integral ---------------------------

    def _pole_data(self, xi2: np.ndarray):
        # S^2 - A^2 = xi2 (xi2 + 2m) because A^2 - m^2 = 1; evaluating the
        # smaller of S -/+ A through that identity avoids the cancellation
        # that otherwise misclassifies poles next to the breakpoints.
        S = np.sqrt((xi2 + self.m) ** 2 + 1.0)
        prod = xi2 * (xi2 + 2.0 * self.m)
        d_plus = S + self.A    # p2 = -i * d_plus
        d_minus = S - self.A   # p1 = +i * d_minus
        use_ratio_minus = np.abs(d_plus) >= np.abs(d_minus)
        safe_plus = np.where(use_ratio_minus, d_plus, 1.0)
        safe_minus = np.where(~use_ratio_minus, d_minus, 1.0)
        d_minus = np.where(use_ratio_minus, prod / safe_plus, d_minus)
        d_plus = np.where(~use_ratio_minus, prod / safe_minus, d_plus)
        p1 = 1j * d_minus
        p2 = -1j * d_plus
        return S, p1, p2

    def _residue_integrand(self, xi2: np.ndarray, x1: np.ndarray):
        """I(xi2, x1) = closed-form xi1 integral, shape (K, len(x1)).

        A pole counts on the rows where it closes the contour (Im p has the
        sign of x1); only there is its exp(i p x1) computed, and entries
        below EXP_FLOOR are exact zeros.
        """
        S, p1, p2 = self._pole_data(xi2)
        pref = (np.pi / S)[:, None]
        out = np.empty((xi2.size, x1.size), dtype=complex)
        for cols, sign in ((x1 >= 0, 1.0), (x1 < 0, -1.0)):
            if not cols.any():
                continue
            x = x1[cols]
            terms = np.zeros((xi2.size, x.size), dtype=complex)
            rows = sign * p1.imag > 0
            terms[rows] = _floored_exp(1j * p1[rows, None] * x[None, :])
            rows = sign * p2.imag > 0
            terms[rows] -= _floored_exp(1j * p2[rows, None] * x[None, :])
            out[:, cols] = sign * pref * terms
        return out

    def _residue_tensor(self, shifts: np.ndarray,
                        base: np.ndarray) -> np.ndarray:
        """_residue_integrand(nodes_in, x) on eval_tensor's outward grid.

        Each pole term factors as exp(i p s_b) * exp(i p sign_b t_j).  For
        the pole that closes the contour on a block's side both factors
        decay, and factors below EXP_FLOOR are exact zeros.  So the
        exps per side are K x (blocks + len(base)), not K x (blocks *
        len(base)).  A row has one closing pole per side except between
        the two breakpoints, where both close on one side and none on the
        other; there the second term is added separately.
        """
        n_neg = int(np.count_nonzero(shifts < 0))
        if np.any(shifts[n_neg:] < 0):
            raise ValueError("negative shifts must come first")
        S, p1, p2 = self._pole_data(self.nodes_in)
        pref = np.pi / S
        out = np.empty((self.nodes_in.size, shifts.size, base.size),
                       dtype=complex)
        for blocks, sign in ((slice(0, n_neg), -1.0),
                             (slice(n_neg, None), 1.0)):
            s, t = shifts[blocks], sign * base
            c1 = sign * p1.imag > 0
            c2 = sign * p2.imag > 0
            # p = 0 on rows with no closing pole keeps their factors finite
            p = np.where(c1, p1, np.where(c2, p2, 0.0))
            coef = sign * pref * np.where(c1, 1.0, np.where(c2, -1.0, 0.0))
            np.multiply((coef[:, None] * _floored_exp(1j * np.outer(p, s)))
                        [:, :, None],
                        _floored_exp(1j * np.outer(p, t))[:, None, :],
                        out=out[:, blocks])
            both = c1 & c2
            if both.any():
                q = p2[both]
                out[both, blocks] -= (
                    (sign * pref[both, None]
                     * _floored_exp(1j * np.outer(q, s)))[:, :, None]
                    * _floored_exp(1j * np.outer(q, t))[:, None, :])
        return out.reshape(self.nodes_in.size, -1)

    def _tailed(self, x1: np.ndarray) -> np.ndarray:
        """Rows that get the tail; elsewhere it is below exp(-45) of the
        integrand's scale."""
        return np.abs(x1) * self.xi_inner < 45.0

    def _tail(self, x1: np.ndarray, x2: np.ndarray):
        """The |xi2| > xi_inner part of the xi2 integral, broadcast over x1
        and x2; 0 at x1 = x2 = 0, where it diverges.

        There a single pole closes on each side and the xi1 integral is
        (pi/S) e^{A x1} e^{-S a}, a = |x1|, S = sqrt(u^2 + 1), with
        u = xi2 + m (xi2 > 0) or -(xi2 + m) (xi2 < 0).  Expanded as
        pi e^{-u a} sum_n c_n(a) u^(-n-1), term n integrates to
        U^-n E_{n+1}(U z) with U = xi_inner +/- m, z = a -/+ i x2.  With
        w = U z and the scaled e^w E_n(w), the side's sum is
        pi exp(A x1 - i m x2 - w) sum_n c_n U^-n (e^w E_{n+1}(w)), whose
        exponent has real part <= -(xi_inner - b_max - 1) a <= 0.
        """
        x1, x2 = np.broadcast_arrays(x1, x2)
        keep = (np.abs(x1) + np.abs(x2)) > 0
        x1, x2 = x1[keep], x2[keep]
        a = np.abs(x1)
        c = _tail_coefficients(a)
        base = self.A * x1 - 1j * self.m * x2
        total = np.zeros(a.shape, dtype=complex)
        for U, z in ((self.xi_inner + self.m, a - 1j * x2),
                     (self.xi_inner - self.m, a + 1j * x2)):
            w = U * z
            e = _scaled_expn(w, len(c))
            U_pow = U ** -np.arange(len(c))
            total += (np.exp(base - w)
                      * np.einsum("n,nk,nk->k", U_pow, c, e))
        out = np.zeros(keep.shape, dtype=complex)
        out[keep] = np.pi * total
        return out

    # -- public evaluation --------------------------------------------------

    def eval_tensor(self, x1_shifts: np.ndarray, x1_base: np.ndarray,
                    shifts: np.ndarray, base: np.ndarray) -> np.ndarray:
        """g on the tensor grid x1 (rows) x x2 (cols), both given as blocks.

        Rows come in outward blocks, x1[b*len(x1_base) + j] = x1_shifts[b]
        + sign(x1_shifts[b]) * x1_base[j], with x1_base >= 0, sign(0) = +1
        and the negative shifts first.  Columns are x2[b*len(base) + j] =
        shifts[b] + base[j].

        Both exponentials of the inner zone are factored over the blocks:
        the Fourier factor exp(i xi x2) = exp(i xi s_b) exp(i xi t_j), and
        each residue term exp(i p x1) likewise (see _residue_tensor), so a
        K_in x len(x) factor costs K_in x (blocks + block length) exps and
        one complex product instead of K_in x len(x) exps.  Residue
        factors whose exponent lies below the underflow floor EXP_FLOOR
        are exact zeros, so no subnormal number reaches the products or
        the GEMM.  The tail beyond xi_inner is added on the rows with
        |x1| < 45 / xi_inner.  The x1 = x2 = 0 entry, if present, is left
        as the (meaningless) truncated value.
        """
        sign = np.where(x1_shifts < 0, -1.0, 1.0)
        x1 = (x1_shifts[:, None] + sign[:, None] * x1_base[None, :]).ravel()
        x2 = (shifts[:, None] + base[None, :]).ravel()
        F_shift = np.exp(1j * np.outer(self.nodes_in, shifts)) * self.w_in[:, None]
        F_base = np.exp(1j * np.outer(self.nodes_in, base))
        F_in = (F_shift[:, :, None] * F_base[:, None, :]).reshape(-1, x2.size)
        I_in = self._residue_tensor(x1_shifts, x1_base)
        g = I_in.T @ F_in
        tailed = self._tailed(x1)
        if tailed.any():
            g[tailed, :] += self._tail(x1[tailed, None], x2[None, :])
        return -g / FOURPI2

    def eval_points(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """g at matched coordinate arrays (scattered points)."""
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        F_in = np.exp(1j * self.nodes_in[:, None] * x2[None, :]) * self.w_in[:, None]
        I_in = self._residue_integrand(self.nodes_in, x1)
        # diagonal of (I^T F): per-point contraction
        g = np.einsum("kj,kj->j", I_in, F_in)
        tailed = self._tailed(x1)
        if tailed.any():
            g[tailed] += self._tail(x1[tailed], x2[tailed])
        return -g / FOURPI2


def greens_points(lam, z) -> np.ndarray:
    """Evaluate g(z, lambda) at arbitrary complex points."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    extent = float(np.max(np.abs(z))) if z.size else 1.0
    quad = _SymbolQuadrature(lam, max(extent, 1.0))
    return quad.eval_points(z.real, z.imag)


# ---------------------------------------------------------------------------
# table construction


@dataclass
class GreensTable:
    """g sampled on all difference vectors of a grid (2N x 2N).

    samples[i, j] = g((i - N) h + 1i (j - N) h, lambda); the z = 0 entry
    holds the cell average of g over one grid cell, which is what the
    Nystrom convolution needs across the logarithmic singularity.
    """

    lam: complex
    grid: Grid
    samples: np.ndarray
    record: dict

    def offsets(self) -> np.ndarray:
        N, h = self.grid.N, self.grid.h
        d = (np.arange(2 * N) - N) * h
        return d[:, None] + 1j * d[None, :]


def _table_axis(N: int, h: float):
    """The table's row offsets (k - N) h, k < 2N, as eval_tensor's outward
    blocks: x < 0 is -h, -2h, ..., -N h and x >= 0 is 0, h, ..., (N-1) h,
    each in blocks of gcd(N, TENSOR_BLOCK).  Returns shifts, base and the
    index that puts the rows back in ascending order."""
    block = math.gcd(N, TENSOR_BLOCK)
    starts = np.arange(0, N, block)
    shifts = np.concatenate([-(starts + 1.0), starts]) * h
    order = np.concatenate([np.arange(N - 1, -1, -1), np.arange(N, 2 * N)])
    return shifts, np.arange(block) * h, order


def _cell_averages(quad: _SymbolQuadrature, h: float, radius: int) -> np.ndarray:
    """Cell averages of g over cells centered at d*h, |d|_inf <= radius.

    Returns a (2 radius + 1)^2 array; entry [d1 + radius, d2 + radius] is
    the average over the cell at (d1 h, d2 h).  Every cell uses the same
    CELL_AVG_ORDER^2 Gauss rule, so the whole patch is one tensor grid
    (cell centres (+) Gauss offsets on each axis) and one eval_tensor call.
    The center cell subtracts the universal log(|u|)/(2 pi) singularity and
    adds back its exact cell average.
    """
    u, w = np.polynomial.legendre.leggauss(CELL_AVG_ORDER)
    centres = np.arange(-radius, radius + 1) * h
    offsets = u * h / 2.0
    x = (centres[:, None] + offsets[None, :]).ravel()
    n = centres.size
    vals = quad.eval_tensor(x, np.zeros(1), centres, offsets)
    vals = vals.reshape(n, u.size, n, u.size)
    r = np.hypot(offsets[:, None], offsets[None, :])
    vals[radius, :, radius, :] -= np.log(r) / (2.0 * np.pi)
    avg = np.einsum("aibj,ij->ab", vals, np.outer(w, w) / 4.0)
    avg[radius, radius] += (np.log(h) + LOG_CELL_AVG) / (2.0 * np.pi)
    return avg


def build_greens_table(grid: Grid, lam, cache_dir=None) -> GreensTable:
    """Tabulate g(z - zeta, lambda) on the 2N x 2N linear-convolution grid.

    The offsets are a uniform grid, so eval_tensor factors both
    exponentials of the inner xi2 zone over blocks of TENSOR_BLOCK offsets:
    the Fourier factor exp(i xi x2) over the 2N columns, and each residue
    term exp(i p x1) over the rows, stepping outward from x1 = 0 on each
    side so that both factors decay.  Residue factors below the underflow
    floor EXP_FLOOR are stored as exact zeros, so no subnormal number
    enters the products or the GEMM; the factored product matches a full
    exp per entry to ~1e-14 relative to the largest entry.  The six-term
    tail beyond xi_inner is added on the rows |x1| < 45 / xi_inner.  On
    |lambda| = 1 the table is within 6e-14 of the K0 closed form off the
    origin patch at N = 64 and 128.

    The cells within CELL_AVG_RADIUS of the origin hold exact cell averages
    (product-integration handling of the log singularity).  Up to eight
    diagonal entries outside that patch, and the x1 = 0 column entries at
    x2 = +/-2h, +/-3h next to it, are re-evaluated with both the Gauss
    order and xi_inner doubled; the largest absolute discrepancy is stored
    as record["error_estimate"].  It tracks the real error: at
    lambda = e^{0.7i} it reads 3.5e-14 and 5.9e-14 at N = 64 and 128, where
    the K0 closed form gives 3.5e-14 and 5.9e-14, and 1.5e-10 against
    1.5e-10 at N = 64 with the tail cut to four terms.  An
    estimate above ERROR_THRESHOLD, or any entry or estimate that is not
    finite, raises QuadratureError.
    With cache_dir set, tables are reloaded from / saved to files keyed by
    (lambda, R, N, RULE_ID).
    """
    lam_c = _as_lambda(lam)
    cache_path = None
    if cache_dir is not None:
        cache_path = os.path.join(str(cache_dir),
                                  cache_key(lam_c, grid, RULE_ID) + ".bin")
        if os.path.exists(cache_path):
            table = load_table(cache_path)
            if (table.lam != lam_c or table.grid != grid
                    or table.record["rule_id"] != RULE_ID):
                raise ValueError(
                    f"cache file {cache_path} holds lambda={table.lam!r}, "
                    f"R={table.grid.R!r}, N={table.grid.N}, rule "
                    f"{table.record['rule_id']!r}; requested "
                    f"lambda={lam_c!r}, R={grid.R!r}, N={grid.N}, rule "
                    f"{RULE_ID!r}")
            return table
    N, h = grid.N, grid.h
    d = (np.arange(2 * N) - N) * h
    quad = _SymbolQuadrature(lam_c, 2.0 * grid.R)
    shifts, base, order = _table_axis(N, h)
    block = math.gcd(2 * N, TENSOR_BLOCK)
    g = quad.eval_tensor(shifts, base, np.arange(0, 2 * N, block) * h,
                         d[:block])[order]

    patch = slice(N - CELL_AVG_RADIUS, N + CELL_AVG_RADIUS + 1)
    g[patch, patch] = _cell_averages(quad, h, CELL_AVG_RADIUS)
    n_bad = int(np.count_nonzero(~np.isfinite(g)))
    if n_bad:
        raise QuadratureError(f"{n_bad} table entries are not finite at "
                              f"lambda={lam_c}")

    probe = _SymbolQuadrature(lam_c, 2.0 * grid.R, refine=2)
    idx = np.linspace(1, 2 * N - 2, 8).astype(int)
    # skip the origin patch: those entries hold cell AVERAGES on purpose
    idx = idx[np.abs(idx - N) > CELL_AVG_RADIUS]
    # the x1 = 0 column next to the patch, where the tail weighs most
    rows = np.concatenate([idx, np.full(4, N)])
    cols = np.concatenate([idx, N + np.array([-3, -2, 2, 3])])
    ref = probe.eval_points(d[rows], d[cols])
    estimate = float(np.max(np.abs(ref - g[rows, cols])))
    if not estimate <= ERROR_THRESHOLD:
        raise QuadratureError(
            f"quadrature error estimate {estimate:.2e} exceeds "
            f"threshold {ERROR_THRESHOLD:.2e} at lambda={lam_c}")

    record = {
        "singular_points": [[z.real, z.imag] for z in singular_points(lam_c)],
        "rule_id": RULE_ID,
        "error_estimate": estimate,
        "near_T": bool(abs(abs(lam_c) - 1.0) < 1e-3),
        "xi_inner": quad.xi_inner,
    }
    table = GreensTable(lam_c, grid, g, record)
    if cache_path is not None:
        os.makedirs(str(cache_dir), exist_ok=True)
        save_table(table, cache_path)
    return table


# ---------------------------------------------------------------------------
# cache files


def save_table(table: GreensTable, path) -> None:
    header = {"lam_re": table.lam.real, "lam_im": table.lam.imag,
              "R": table.grid.R, "N": table.grid.N,
              "rule_id": table.record["rule_id"],
              "error_estimate": table.record.get("error_estimate"),
              "record": {k: v for k, v in table.record.items()
                         if k != "error_estimate"}}
    # write a temporary file beside the target, then rename it over the
    # target: a reader sees either no file or a complete one
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(json.dumps(header).encode("utf-8"))
            f.write(b"\n")
            f.write(np.ascontiguousarray(table.samples,
                                         dtype="<c16").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path) -> GreensTable:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        payload = f.read()
    grid = Grid(header["R"], header["N"])
    n = 2 * grid.N
    samples = np.frombuffer(payload, dtype="<c16").reshape(n, n).copy()
    record = dict(header.get("record", {}))
    record["error_estimate"] = header.get("error_estimate")
    record["rule_id"] = header["rule_id"]
    lam = complex(header["lam_re"], header["lam_im"])
    return GreensTable(lam, grid, samples, record)


def cache_key(lam, grid: Grid, rule_id: str) -> str:
    lam = _as_lambda(lam)
    return (f"g_{lam.real:.17g}_{lam.imag:.17g}_R{grid.R:.6g}_N{grid.N}_"
            f"{rule_id}").replace("/", "_")
