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
breakpoints, with the slowly decaying |x1| ~ 0 tails added in closed form
through the exponential integral E1.  The scheme stays uniformly accurate
across the unit circle |lambda| = 1, where the two symbol singularities
collide and naive 2D grid quadrature of the symbol breaks down.

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

# smallest grid spacing greens_points resolves (sets the outer xi cut-off)
POINTS_H_MIN = 0.1


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


class _SymbolQuadrature:
    """Residue-reduced evaluator of g(z, lambda) at arbitrary points.

    Splits the xi2 axis into an inner zone (used by every target point) and
    an outer zone that only points with small |x1| need; beyond the outer
    cutoff the integral is added analytically via E1.
    """

    def __init__(self, lam, x_extent: float, h_min: float, refine: int = 1):
        self.lam = _as_lambda(lam)
        self.A = 0.5 * (self.lam + 1.0 / self.lam)
        self.m = 0.5 * (self.lam - 1.0 / self.lam)
        self.order = 16 * int(refine)
        bps = _breakpoints(self.lam)
        b_max = max(abs(b) for b in bps)
        # panel width cap resolving exp(i xi2 x2) and the x1-induced phase
        osc = max(2.0 * x_extent, 4.0)
        w_max = 2.0 * (self.order - 3) / osc
        self.xi_inner = max(60.0, b_max + 40.0)
        self.xi_outer = max(self.xi_inner + 1.0, 45.0 / max(h_min, 1e-3), 440.0)
        self.x1_zone = 45.0 / self.xi_inner

        edges = {-self.xi_inner, self.xi_inner}
        for b in bps:
            edges.update(_graded_edges(b, -self.xi_inner, self.xi_inner))
        inner_edges = _split_wide(np.array(sorted(edges)), w_max)
        self.nodes_in, self.w_in = _panel_rule(inner_edges, self.order)

        outer_hi = _split_wide(np.array([self.xi_inner, self.xi_outer]), w_max)
        outer_lo = -outer_hi[::-1]
        n_hi, w_hi = _panel_rule(outer_hi, self.order)
        n_lo, w_lo = _panel_rule(outer_lo, self.order)
        self.nodes_out = np.concatenate([n_lo, n_hi])
        self.w_out = np.concatenate([w_lo, w_hi])

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

    def _zones(self, x1: np.ndarray):
        """Masks over x1: the outer zone is needed where |x1| < x1_zone,
        the analytic E1 tail where |x1| * xi_outer < 40."""
        a = np.abs(x1)
        return a < self.x1_zone, a * self.xi_outer < 40.0

    def _tail(self, x1: np.ndarray, x2: np.ndarray):
        """Analytic |xi2| > xi_outer remainder, broadcast over x1 and x2;
        0 at x1 = x2 = 0, where it diverges."""
        x1, x2 = np.broadcast_arrays(x1, x2)
        keep = (np.abs(x1) + np.abs(x2)) > 0
        x1, x2 = x1[keep], x2[keep]
        Xi = self.xi_outer
        a = np.abs(x1)
        arg_p = (a - 1j * x2) * (Xi + self.m)
        arg_m = (a + 1j * x2) * (Xi - self.m)
        pref = np.pi * np.exp(self.A * x1 - 1j * self.m * x2)
        out = np.zeros(keep.shape, dtype=complex)
        out[keep] = pref * (exp1(arg_p) + exp1(arg_m))
        return out

    def _outer_tensor(self, x1: np.ndarray, shifts: np.ndarray,
                      base: np.ndarray) -> np.ndarray:
        """Outer-zone sum on x1 (rows) x (shifts (+) base) (cols).

        Column b*len(base) + j sits at x2 = shifts[b] + base[j].  Since
        exp(i xi (s + t)) = exp(i xi s) exp(i xi t), the Fourier factor is
        one (K x len(base)) exp shared by all blocks; each block multiplies
        one exp(i xi s) column into the weighted integrand and does a small
        matmul.  The blocks share one buffer for the shifted integrand,
        which spares a fresh (page-faulted) allocation per block.
        """
        I_out = self._residue_integrand(self.nodes_out, x1) * self.w_out[:, None]
        F_base = np.exp(1j * np.outer(self.nodes_out, base))
        shifted = np.empty_like(I_out)
        out = np.empty((x1.size, shifts.size, base.size), dtype=complex)
        for b, s in enumerate(shifts):
            col = np.exp(1j * s * self.nodes_out)[:, None]
            np.multiply(I_out, col, out=shifted)
            out[:, b, :] = shifted.T @ F_base
        return out.reshape(x1.size, -1)

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
        the GEMM.  The outer zone (only the |x1| < x1_zone rows) is
        block-shifted, see _outer_tensor.  The x1 = x2 = 0 entry, if
        present, is left as the (meaningless) truncated value.
        """
        sign = np.where(x1_shifts < 0, -1.0, 1.0)
        x1 = (x1_shifts[:, None] + sign[:, None] * x1_base[None, :]).ravel()
        x2 = (shifts[:, None] + base[None, :]).ravel()
        F_shift = np.exp(1j * np.outer(self.nodes_in, shifts)) * self.w_in[:, None]
        F_base = np.exp(1j * np.outer(self.nodes_in, base))
        F_in = (F_shift[:, :, None] * F_base[:, None, :]).reshape(-1, x2.size)
        I_in = self._residue_tensor(x1_shifts, x1_base)
        g = I_in.T @ F_in
        # free the two K_in x len(x) factors before the outer zone allocates
        del I_in, F_in

        outer, tailed = self._zones(x1)
        if outer.any():
            g[outer, :] += self._outer_tensor(x1[outer], shifts, base)
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

        outer, tailed = self._zones(x1)
        if outer.any():
            F_out = (np.exp(1j * self.nodes_out[:, None] * x2[None, outer])
                     * self.w_out[:, None])
            I_out = self._residue_integrand(self.nodes_out, x1[outer])
            g[outer] += np.einsum("kj,kj->j", I_out, F_out)
        if tailed.any():
            g[tailed] += self._tail(x1[tailed], x2[tailed])
        return -g / FOURPI2


def greens_points(lam, z) -> np.ndarray:
    """Evaluate g(z, lambda) at arbitrary complex points."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    extent = float(np.max(np.abs(z))) if z.size else 1.0
    quad = _SymbolQuadrature(lam, max(extent, 1.0), POINTS_H_MIN)
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
    enters the products or the GEMM.  The rule (nodes, weights, cut-offs)
    is unchanged by this and matches a full exp per entry to ~1e-14
    relative to the largest entry.

    The cells within CELL_AVG_RADIUS of the origin hold exact cell averages
    (product-integration handling of the log singularity).  Up to eight
    diagonal entries outside that patch are re-evaluated at doubled Gauss
    order; the largest absolute discrepancy is stored as
    record["error_estimate"]; an estimate above ERROR_THRESHOLD, or any
    entry or estimate that is not finite, raises QuadratureError.  The
    probe keeps the same xi cut-offs (xi_inner, xi_outer) and E1 tail, so
    it sees only the Gauss-order error, not the truncation error: it reads
    ~1e-16 at N = 16..128 while the table differs from the K0 closed form
    on |lambda| = 1 by up to 2.5e-9.
    With cache_dir set, tables are reloaded from / saved to files keyed by
    (lambda, R, N, rule id).
    """
    lam_c = _as_lambda(lam)
    rule_id = f"residue1d-gl16-avg{CELL_AVG_RADIUS}"
    cache_path = None
    if cache_dir is not None:
        cache_path = os.path.join(str(cache_dir),
                                  cache_key(lam_c, grid, rule_id) + ".bin")
        if os.path.exists(cache_path):
            table = load_table(cache_path)
            if (table.lam != lam_c or table.grid != grid
                    or table.record["rule_id"] != rule_id):
                raise ValueError(
                    f"cache file {cache_path} holds lambda={table.lam!r}, "
                    f"R={table.grid.R!r}, N={table.grid.N}, rule "
                    f"{table.record['rule_id']!r}; requested "
                    f"lambda={lam_c!r}, R={grid.R!r}, N={grid.N}, rule "
                    f"{rule_id!r}")
            return table
    N, h = grid.N, grid.h
    d = (np.arange(2 * N) - N) * h
    quad = _SymbolQuadrature(lam_c, 2.0 * grid.R, h)
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

    probe = _SymbolQuadrature(lam_c, 2.0 * grid.R, h, refine=2)
    idx = np.linspace(1, 2 * N - 2, 8).astype(int)
    # skip the origin patch: those entries hold cell AVERAGES on purpose
    idx = idx[np.abs(idx - N) > CELL_AVG_RADIUS]
    ref = probe.eval_points(d[idx], d[idx])
    estimate = float(np.max(np.abs(ref - g[idx, idx])))
    if not estimate <= ERROR_THRESHOLD:
        raise QuadratureError(
            f"quadrature error estimate {estimate:.2e} exceeds "
            f"threshold {ERROR_THRESHOLD:.2e} at lambda={lam_c}")

    record = {
        "singular_points": [[z.real, z.imag] for z in singular_points(lam_c)],
        "rule_id": rule_id,
        "error_estimate": estimate,
        "near_T": bool(abs(abs(lam_c) - 1.0) < 1e-3),
        "xi_inner": quad.xi_inner,
        "xi_outer": quad.xi_outer,
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
