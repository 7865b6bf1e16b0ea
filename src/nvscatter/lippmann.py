"""Integral equation for mu and the modified Fredholm determinant.

mu(z, lambda) solves mu = 1 + Conv_g(v * mu) where Conv_g is convolution
against the tabulated lambda-dependent fundamental solution.  The weighted
kernel

    A(z, zeta) = (1+|z|)^(-(2+eps)/2) g(z-zeta) v(zeta) (1+|zeta|)^((2+eps)/2) h^2

is Hilbert-Schmidt for decaying v, and the regularized determinant

    Delta = prod_i (1 - mu_i) exp(mu_i)            (mu_i = eigenvalues of A)
          = det(I - A) * exp(Tr A)

is computed by the second form, from an LU factorisation of I - A.

detects the exceptional set E = {lambda : Delta(lambda) = 0} where the
mu-equation loses unique solvability.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor
from scipy.sparse.linalg import LinearOperator, lgmres

from .grids import Grid, LambdaGrid, Potential
from .greens import GreensTable

DENSE_N_CAP = 128
SUPPORT_RTOL = 1e-12
MU_TOL = 1e-10
EXCEPTIONAL_RTOL = 1e-6


class ExceptionalSetError(RuntimeError):
    """mu iteration failed to converge; lambda likely in the exceptional set."""


def _check_same_grid(v: Potential, table: GreensTable) -> None:
    if v.grid != table.grid:
        raise ValueError("potential and table grids differ")


# ---------------------------------------------------------------------------
# convolution against the tabulated kernel


def conv_kernel_hat(table: GreensTable) -> np.ndarray:
    """FFT of the zero-padding convolution kernel, quadrature weight folded in.

    The table holds g on difference vectors (2N per axis); rolling it puts
    offset 0 at index 0 so a circular convolution of size 2N reproduces the
    linear convolution on the N x N grid exactly.
    """
    N = table.grid.N
    kern = np.roll(table.samples, (-N, -N), axis=(0, 1))
    return np.fft.fft2(kern) * table.grid.h ** 2


def apply_conv(khat: np.ndarray, f: np.ndarray) -> np.ndarray:
    """h^2 * sum_zeta g(z - zeta) f(zeta), all z at once via padded FFT."""
    N = f.shape[0]
    pad = np.zeros((2 * N, 2 * N), dtype=complex)
    pad[:N, :N] = f
    return np.fft.ifft2(khat * np.fft.fft2(pad))[:N, :N]


# ---------------------------------------------------------------------------
# mu solve


@dataclass
class MuField:
    """Solution of mu = 1 + Conv_g(v mu) on the grid.

    The exponentially growing solution psi = exp(-(lam*conj(z)+z/lam)/2)*mu
    is derivable and never stored.
    """

    lam: complex
    grid: Grid
    samples: np.ndarray
    residual: float
    iterations: int


def solve_mu(v: Potential, table: GreensTable, tol: float = MU_TOL,
             maxiter: int = 400) -> MuField:
    """Solve the integral equation by Krylov iteration on the FFT operator.

    Residual is the relative 2-norm of mu - 1 - Conv_g(v mu).  Stagnation is
    reported as ExceptionalSetError since non-convergence at reasonable
    resolution signals lambda in (or near) the exceptional set E.
    """
    _check_same_grid(v, table)
    N = v.grid.N
    if not np.any(v.samples):
        return MuField(table.lam, v.grid, np.ones((N, N), dtype=complex),
                       0.0, 0)
    khat = conv_kernel_hat(table)
    vv = v.samples

    def matvec(x):
        m = x.reshape(N, N)
        return (m - apply_conv(khat, vv * m)).ravel()

    op = LinearOperator((N * N, N * N), matvec=matvec, dtype=complex)
    rhs = np.ones(N * N, dtype=complex)
    x0 = (1.0 + apply_conv(khat, vv)).ravel()  # Born start
    it_count = [0]

    def _cb(xk):
        it_count[0] += 1

    x, info = lgmres(op, rhs, x0=x0, rtol=0.05 * tol, atol=0.0,
                     maxiter=maxiter, callback=_cb)
    res = np.linalg.norm(matvec(x) - rhs) / np.linalg.norm(rhs)
    if info != 0 or not np.isfinite(res) or res > tol:
        raise ExceptionalSetError(
            f"mu iteration non-convergent at lambda={table.lam:.6g} "
            f"(residual {res:.3e}) -- lambda likely in exceptional set E")
    return MuField(table.lam, v.grid, x.reshape(N, N), float(res),
                   it_count[0])


# ---------------------------------------------------------------------------
# weighted kernel


@dataclass
class KernelMatrix:
    """Dense discretization of the weighted kernel, support-restricted.

    Columns where v vanishes (below support_rtol * max|v|) are identically
    zero and contribute only zero eigenvalues, so the dense block keeps just
    the support nodes; `mask` records which grid nodes those are.  hs_norm is
    the Hilbert-Schmidt (Frobenius) norm over ALL grid rows, the quantity
    that stays finite as the domain grows.
    """

    lam: complex
    grid: Grid
    eps: float
    mask: np.ndarray
    dense: np.ndarray
    trace: complex
    hs_norm: float
    block_fro: float

    @property
    def size(self) -> int:
        return self.dense.shape[0]


def build_kernel(v: Potential, table: GreensTable, eps: float = 1.0,
                 support_rtol: float = SUPPORT_RTOL,
                 dense_cap: int = DENSE_N_CAP) -> KernelMatrix:
    """Assemble the dense weighted kernel block on the support of v."""
    _check_same_grid(v, table)
    if eps <= 0:
        raise ValueError("eps must be positive")
    N = v.grid.N
    if N > dense_cap:
        raise ValueError(f"dense determinant mode capped at N={dense_cap}; "
                         f"got N={N}")
    h = v.grid.h
    vmax = np.max(np.abs(v.samples))
    mask = np.abs(v.samples) > support_rtol * vmax if vmax > 0 else \
        np.zeros((N, N), dtype=bool)
    ii, jj = (x.astype(np.int32) for x in np.nonzero(mask))
    ns = ii.size
    if ns == 0:
        return KernelMatrix(table.lam, v.grid, eps, mask,
                            np.zeros((0, 0), dtype=complex), 0j, 0.0, 0.0)
    z = v.grid.nodes()[mask]
    w = (1.0 + np.abs(z)) ** ((2.0 + eps) / 2.0)
    col = v.samples[mask] * h * h * w
    # one flat int32 gather of g(z_p - z_q) into the table's (2N)^2 entries
    flat = (ii[:, None] - ii[None, :] + N) * (2 * N)
    flat += jj[:, None] - jj[None, :] + N
    dense = table.samples.ravel()[flat]
    del flat
    dense *= col[None, :]
    dense /= w[:, None]
    trace = table.samples[N, N] * complex(np.sum(v.samples[mask])) * h * h
    block_fro = float(np.sqrt(np.vdot(dense, dense).real))
    hs2 = float(np.sum(np.abs(col) ** 2 * _row_weight_sums(table, eps)[mask]))
    return KernelMatrix(table.lam, v.grid, eps, mask, dense, trace,
                        float(np.sqrt(hs2)), block_fro)


def _row_weight_sums(table: GreensTable, eps: float) -> np.ndarray:
    """S(q) = sum over ALL grid nodes p of (1+|z_p|)^-(2+eps) |g(z_p - z_q)|^2.

    One padded-FFT correlation of the row weights with |g|^2 over the table's
    difference grid: the offsets p - q span -(N-1)..N-1 per axis, so a
    circular correlation of size 2N never wraps, and the table's offset -N
    never enters.
    """
    N = table.grid.N
    pad = np.zeros((2 * N, 2 * N))
    pad[:N, :N] = (1.0 + np.abs(table.grid.nodes())) ** (-(2.0 + eps))
    g2 = np.abs(table.samples) ** 2
    corr = np.fft.irfft2(np.conj(np.fft.rfft2(pad)) * np.fft.rfft2(g2),
                         s=g2.shape)
    return corr[N:0:-1, N:0:-1]


def solve_weighted(kernel: KernelMatrix) -> np.ndarray:
    """Direct dense solve of (I - A) m = weighted 1 on the support nodes.

    Returns mu = w*m there; cross-validates solve_mu.
    """
    ns = kernel.size
    if ns == 0:
        return np.ones(0, dtype=complex)
    z = kernel.grid.nodes()[kernel.mask]
    w = (1.0 + np.abs(z)) ** ((2.0 + kernel.eps) / 2.0)
    m = np.linalg.solve(np.eye(ns) - kernel.dense, 1.0 / w)
    return w * m


# ---------------------------------------------------------------------------
# modified Fredholm determinant


@dataclass
class DeterminantSample:
    lam: complex
    delta: complex
    im_residual: float
    n_eigs: int
    method: str
    hs_norm: float
    flag: str = ""
    diagnostics: dict = field(default_factory=dict)


def modified_fredholm_det(kernel: KernelMatrix, method: str = "lu",
                          near_one_tol: float = 1e-12) -> DeterminantSample:
    """Delta = det(I - A) e^{Tr A} from an LU factorisation of I - A.

    The kernel is left unchanged: I - A is formed once as a Fortran-ordered
    copy of (I - A)^T, which has the same determinant and is factored in
    place.  Pivot swaps fix the sign.  A pivot that is exactly zero, or a
    smallest-to-largest |U_ii| ratio below near_one_tol, marks lambda as
    (near) exceptional; the ratio is kept as diagnostics["min_pivot_ratio"].
    "lu" is the only method.
    """
    if method != "lu":
        raise ValueError(f"unknown method {method!r}")
    ns = kernel.size
    if ns == 0:
        return DeterminantSample(kernel.lam, 1.0 + 0j, 0.0, 0, "lu-logdet",
                                 0.0)
    mat = np.negative(kernel.dense.T, order="F")
    mat[np.diag_indices(ns)] += 1.0
    lu, piv = lu_factor(mat, overwrite_a=True, check_finite=False)
    u = np.diag(lu)
    pivots = np.abs(u)
    ratio = float(pivots.min() / pivots.max()) if pivots.max() > 0 else 0.0
    flag = ""
    if ratio < near_one_tol:
        flag = "lambda in (or near) exceptional set E"
    if ratio == 0.0:
        delta = 0j
    else:
        logdet = complex(np.sum(np.log(u)))
        if np.count_nonzero(piv != np.arange(ns)) % 2:
            logdet += 1j * np.pi
        delta = complex(np.exp(logdet + kernel.trace))
    return DeterminantSample(kernel.lam, delta, abs(delta.imag), ns,
                             "lu-logdet", kernel.hs_norm, flag,
                             {"min_pivot_ratio": ratio})


# ---------------------------------------------------------------------------
# lambda-grid determinant scan and exceptional-set detection


def determinant_scan(v: Potential, lgrid: LambdaGrid, eps: float = 1.0,
                     threads: int = 1,
                     table_opts: dict | None = None) -> list[DeterminantSample]:
    """The Delta column of scattering.scan(..., with_ab=False); a lambda
    without Delta becomes a NaN sample flagged "failed: <record flags>"."""
    from .scattering import scan  # scattering imports this module

    data = scan(v, lgrid, eps=eps, with_determinant=True, threads=threads,
                table_opts=table_opts, with_ab=False)
    return [r.delta if r.delta is not None else
            DeterminantSample(r.lam, np.nan + 0j, np.nan, 0, "lu-logdet",
                              np.nan, flag=f"failed: {'; '.join(r.flags)}")
            for r in data.records]


@dataclass
class ExceptionalScan:
    flagged: list
    samples: list
    t_value: complex | None


def detect_exceptional(v: Potential, lgrid: LambdaGrid, eps: float = 1.0,
                       exceptional_rtol: float = EXCEPTIONAL_RTOL,
                       threads: int = 1) -> ExceptionalScan:
    """Flag lambda where |Delta| drops below exceptional_rtol * max|Delta|.

    Also reports the (constant) value of Delta on the unit circle when the
    grid contains |lambda| = 1 samples.
    """
    samples = determinant_scan(v, lgrid, eps=eps, threads=threads)
    finite = [s for s in samples if np.isfinite(s.delta)]
    if not finite:
        return ExceptionalScan([], samples, None)
    dmax = max(abs(s.delta) for s in finite)
    flagged = [s.lam for s in finite if abs(s.delta) < exceptional_rtol * dmax]
    on_t = [s.delta for s, p in zip(samples, lgrid.points)
            if p.on_T and np.isfinite(s.delta)]
    t_value = complex(np.mean(on_t)) if on_t else None
    return ExceptionalScan(flagged, samples, t_value)


def save_determinant_csv(samples: list, path) -> None:
    """CSV columns: re/im lambda, polar lambda, re/im Delta, method, hs, flag."""
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["re_lambda", "im_lambda", "abs_lambda", "arg_lambda",
                     "re_delta", "im_delta", "method", "hs_norm", "flag"])
        for s in samples:
            lam = complex(s.lam)
            wr.writerow([repr(lam.real), repr(lam.imag), repr(abs(lam)),
                         repr(float(np.angle(lam))), repr(s.delta.real),
                         repr(s.delta.imag), s.method, repr(float(s.hs_norm)),
                         s.flag])
