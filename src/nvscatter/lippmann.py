"""Integral equation for mu and the modified Fredholm determinant.

mu(z, lambda) solves mu = 1 + Conv_g(v * mu) where Conv_g is convolution
against the tabulated lambda-dependent fundamental solution.  The weighted
kernel

    A_w(z, zeta) = (1+|z|)^(-(2+eps)/2) g(z-zeta) v(zeta) (1+|zeta|)^((2+eps)/2) h^2

is Hilbert-Schmidt for |v| <= q (1+|z|)^(-2-eps), with eps the potential's
own decay exponent (Potential.eps).  It is a similarity transform of the
unweighted block A(z, zeta) = g(z-zeta) v(zeta) h^2, so both have the same
eigenvalues, trace and regularized determinant

    Delta = prod_i (1 - mu_i) exp(mu_i)            (mu_i = eigenvalues of A)
          = det(I - A) * exp(Tr A),

which is computed by the second form, from an LU factorisation of the
unweighted I - A.  The weight enters only the Hilbert-Schmidt norm.
Columns where v is small are not zero, so the block is not exact on any
finite support: it starts from the reference support S = {|v| >
SUPPORT_RTOL * max|v|} and drops the smallest-|v| columns of S for as
long as Simon's det2 bound keeps the change in Delta at or below
DELTA_SUPPORT_TOL; the bound is reported with every Delta.
detect_exceptional flags the exceptional set E = {lambda : Delta(lambda) = 0}
where the mu-equation loses unique solvability.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor
from scipy.sparse.linalg import LinearOperator, gmres

from .grids import Grid, LambdaGrid, Potential
from .greens import GreensTable

DENSE_N_CAP = 128
SUPPORT_RTOL = 1e-12
DELTA_SUPPORT_TOL = 1e-10
MU_TOL = 1e-10
MU_MAXITER = 400
NEAR_ONE_TOL = 1e-12
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
    iterations: int  # inner Krylov steps


def solve_mu(v: Potential, table: GreensTable) -> MuField:
    """Solve the integral equation by Krylov iteration on the FFT operator.

    Residual is the relative 2-norm of mu - 1 - Conv_g(v mu), at most
    MU_TOL (read at call time).  Stagnation is reported as
    ExceptionalSetError since non-convergence at reasonable resolution
    signals lambda in (or near) the exceptional set E.
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

    def _cb(pr_norm):
        it_count[0] += 1

    # gmres, not lgmres: gmres does its vector work in numpy, on the same
    # OpenBLAS pool as the Green's-table GEMMs, while lgmres calls scipy's
    # own OpenBLAS, and the two pools' spinning workers slow each other
    # down on 2 cores (a scan's mu solves at N = 128 took 5x longer).
    # 30 inner steps per restart, as lgmres had.
    x, info = gmres(op, rhs, x0=x0, rtol=0.05 * MU_TOL, atol=0.0,
                    restart=30, maxiter=MU_MAXITER, callback=_cb,
                    callback_type="pr_norm")
    res = np.linalg.norm(matvec(x) - rhs) / np.linalg.norm(rhs)
    if info != 0 or not np.isfinite(res) or res > MU_TOL:
        raise ExceptionalSetError(
            f"mu iteration non-convergent at lambda={table.lam:.6g} "
            f"(residual {res:.3e}) -- lambda likely in exceptional set E")
    return MuField(table.lam, v.grid, x.reshape(N, N), float(res),
                   it_count[0])


# ---------------------------------------------------------------------------
# kernel


@dataclass
class KernelMatrix:
    """Dense unweighted kernel A[p, q] = g(z_p - z_q) v(z_q) h^2 on the kept
    nodes `mask`.

    The reference support S = {|v| > SUPPORT_RTOL * max|v|} holds every node
    that could matter; nodes outside it are dropped outright.  Of S, only
    the nodes with |v| at or above a per-lambda level are kept: the dropped
    columns are the ones of smallest |v| whose Hilbert-Schmidt mass
    (rows over S) is small enough that Simon's bound certifies the change
    in Delta, |Delta_kept - Delta_S| <= support_bound <= DELTA_SUPPORT_TOL
    (see build_kernel).  support_nodes is |S|.  The block is unweighted:
    the weight (1+|z|)^((2+eps)/2) is a similarity transform that leaves
    Delta and Tr A unchanged, and it enters only hs_norm, the
    Hilbert-Schmidt (Frobenius) norm of the weighted kernel over ALL grid
    rows and the columns of S, the quantity that stays finite as the domain
    grows.
    """

    lam: complex
    grid: Grid
    mask: np.ndarray
    dense: np.ndarray
    trace: complex
    hs_norm: float
    support_bound: float
    support_nodes: int

    @property
    def size(self) -> int:
        return self.dense.shape[0]


def build_kernel(v: Potential, table: GreensTable) -> KernelMatrix:
    """Assemble the dense unweighted kernel block on the certified support;
    the potential's decay exponent v.eps is the weight exponent of hs_norm.

    A is the kernel on S.  Dropping the columns D of S leaves B, whose
    nonzero eigenvalues are those of the kept block, and by B. Simon,
    Trace Ideals and Their Applications (2nd ed., AMS 2005), Thm 9.2,

        |det2(I - A) - det2(I - B)| <= |A - B|_HS exp((|A|_HS + |B|_HS + 1)^2 / 2)

    with |A - B|_HS^2 = sum_{q in D} c_q, c_q = |v_q h^2|^2 sum_{p in S}
    |g(z_p - z_q)|^2.  Since |B|_HS <= |A|_HS, D is the longest run of
    smallest-|v| columns whose summed c_q keeps the bound at or below
    DELTA_SUPPORT_TOL, trimmed to a |v| level so that nodes of equal |v|
    (a symmetry orbit) are kept or dropped together.  When nothing can be
    certified D is empty and the block is the whole of S.
    """
    _check_same_grid(v, table)
    N = v.grid.N
    if N > DENSE_N_CAP:
        raise ValueError(f"dense determinant mode capped at N={DENSE_N_CAP}; "
                         f"got N={N}")
    h = v.grid.h
    absv = np.abs(v.samples)
    support = absv > SUPPORT_RTOL * np.max(absv)
    n_support = int(np.count_nonzero(support))
    if n_support == 0:
        return KernelMatrix(table.lam, v.grid, support,
                            np.zeros((0, 0), dtype=complex), 0j, 0.0, 0.0, 0)
    col = v.samples[support] * h * h
    w = (1.0 + np.abs(v.grid.nodes()[support])) ** ((2.0 + v.eps) / 2.0)
    row_w = (1.0 + np.abs(v.grid.nodes())) ** (-(2.0 + v.eps))
    hs2 = float(np.sum(np.abs(col * w) ** 2
                       * _row_weight_sums(table, row_w)[support]))

    # c_q: HS^2 of column q over the rows of S
    c = np.abs(col) ** 2 \
        * _row_weight_sums(table, support.astype(float))[support]
    a_hs = float(np.sqrt(np.sum(c)))
    # squared budget for |A - B|_HS; a large |A|_HS underflows it to 0,
    # and then nothing is dropped
    budget2 = DELTA_SUPPORT_TOL ** 2 * np.exp(-(2.0 * a_hs + 1.0) ** 2)
    av = absv[support]
    order = np.argsort(av)
    n_drop = int(np.searchsorted(np.cumsum(c[order]), budget2, side="right"))
    keep = av >= (av[order[n_drop]] if n_drop < n_support else np.inf)
    drop_hs = float(np.sqrt(np.sum(c[~keep])))
    bound = 0.0
    if drop_hs > 0:
        b_hs = float(np.sqrt(np.sum(c[keep])))
        bound = drop_hs * float(np.exp(0.5 * (a_hs + b_hs + 1.0) ** 2))

    mask = support.copy()
    mask[support] = keep
    col = col[keep]
    ii, jj = (x.astype(np.int32) for x in np.nonzero(mask))
    # one flat int32 gather of g(z_p - z_q) into the table's (2N)^2 entries
    flat = (ii[:, None] - ii[None, :] + N) * (2 * N)
    flat += jj[:, None] - jj[None, :] + N
    dense = table.samples.ravel()[flat]
    del flat
    dense *= col[None, :]
    trace = table.samples[N, N] * complex(np.sum(v.samples[mask])) * h * h
    return KernelMatrix(table.lam, v.grid, mask, dense, trace,
                        float(np.sqrt(hs2)), bound, n_support)


def _row_weight_sums(table: GreensTable, row_w: np.ndarray) -> np.ndarray:
    """S(q) = sum over ALL grid nodes p of row_w[p] |g(z_p - z_q)|^2.

    One padded-FFT correlation of the row weights with |g|^2 over the table's
    difference grid: the offsets p - q span -(N-1)..N-1 per axis, so a
    circular correlation of size 2N never wraps, and the table's offset -N
    never enters.
    """
    N = table.grid.N
    pad = np.zeros((2 * N, 2 * N))
    pad[:N, :N] = row_w
    g2 = np.abs(table.samples) ** 2
    corr = np.fft.irfft2(np.conj(np.fft.rfft2(pad)) * np.fft.rfft2(g2),
                         s=g2.shape)
    return corr[N:0:-1, N:0:-1]


# ---------------------------------------------------------------------------
# modified Fredholm determinant


@dataclass
class DeterminantSample:
    lam: complex
    delta: complex
    n_eigs: int
    hs_norm: float
    flag: str = ""
    diagnostics: dict = field(default_factory=dict)


def modified_fredholm_det(kernel: KernelMatrix,
                          method: str = "lu") -> DeterminantSample:
    """Delta = det(I - A) e^{Tr A} from an LU factorisation of I - A.

    The kernel is left unchanged: I - A is formed once as a Fortran-ordered
    copy of (I - A)^T, which has the same determinant and is factored in
    place.  Pivot swaps fix the sign.  A pivot that is exactly zero, or a
    smallest-to-largest |U_ii| ratio below NEAR_ONE_TOL, marks lambda as
    (near) exceptional; the ratio is kept as diagnostics["min_pivot_ratio"]
    (1.0 for an empty block).
    diagnostics["support_bound"] and ["support_nodes"] are the kernel's
    certified bound on the change in Delta from the support cut and |S|.
    "lu" is the only method.
    """
    if method != "lu":
        raise ValueError(f"unknown method {method!r}")
    ns = kernel.size
    diagnostics = {"support_bound": kernel.support_bound,
                   "support_nodes": kernel.support_nodes,
                   "min_pivot_ratio": 1.0}
    if ns == 0:
        return DeterminantSample(kernel.lam, 1.0 + 0j, 0, kernel.hs_norm, "",
                                 diagnostics)
    mat = np.negative(kernel.dense.T, order="F")
    mat[np.diag_indices(ns)] += 1.0
    lu, piv = lu_factor(mat, overwrite_a=True, check_finite=False)
    u = np.diag(lu)
    pivots = np.abs(u)
    ratio = float(pivots.min() / pivots.max()) if pivots.max() > 0 else 0.0
    flag = ""
    if ratio < NEAR_ONE_TOL:
        flag = "lambda in (or near) exceptional set E"
    if ratio == 0.0:
        delta = 0j
    else:
        logdet = complex(np.sum(np.log(u)))
        if np.count_nonzero(piv != np.arange(ns)) % 2:
            logdet += 1j * np.pi
        delta = complex(np.exp(logdet + kernel.trace))
    diagnostics["min_pivot_ratio"] = ratio
    return DeterminantSample(kernel.lam, delta, ns, kernel.hs_norm, flag,
                             diagnostics)


# ---------------------------------------------------------------------------
# lambda-grid determinant scan and exceptional-set detection


def determinant_scan(v: Potential,
                     lgrid: LambdaGrid) -> list[DeterminantSample]:
    """The Delta column of scattering.scan(..., with_ab=False), one
    delta_sample per lambda."""
    from .scattering import scan  # scattering imports this module

    data = scan(v, lgrid, with_ab=False)
    return [r.delta_sample() for r in data.records]


@dataclass
class ExceptionalScan:
    flagged: list
    samples: list
    t_value: complex | None


def detect_exceptional(v: Potential, lgrid: LambdaGrid) -> ExceptionalScan:
    """Flag lambda where |Delta| drops below EXCEPTIONAL_RTOL * max|Delta|.

    Also reports the (constant) value of Delta on the unit circle when the
    grid contains |lambda| = 1 samples.
    """
    samples = determinant_scan(v, lgrid)
    finite = [s for s in samples if np.isfinite(s.delta)]
    if not finite:
        return ExceptionalScan([], samples, None)
    dmax = max(abs(s.delta) for s in finite)
    flagged = [s.lam for s in finite if abs(s.delta) < EXCEPTIONAL_RTOL * dmax]
    on_t = [s.delta for s, p in zip(samples, lgrid.points)
            if p.on_T and np.isfinite(s.delta)]
    t_value = complex(np.mean(on_t)) if on_t else None
    return ExceptionalScan(flagged, samples, t_value)


def save_determinant_csv(samples: list, path) -> None:
    """CSV columns: re/im lambda, polar lambda, re/im Delta, hs, flag."""
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["re_lambda", "im_lambda", "abs_lambda", "arg_lambda",
                     "re_delta", "im_delta", "hs_norm", "flag"])
        for s in samples:
            lam = complex(s.lam)
            wr.writerow([repr(lam.real), repr(lam.imag), repr(abs(lam)),
                         repr(float(np.angle(lam))), repr(s.delta.real),
                         repr(s.delta.imag), repr(float(s.hs_norm)), s.flag])
