import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning
from scipy.sparse.linalg import LinearOperator, lgmres

from nvscatter import greens, lippmann
from nvscatter.greens import GreensTable, build_greens_table
from nvscatter.grids import make_grid, make_lambda_grid, sample_potential
from nvscatter.lippmann import (DeterminantSample, ExceptionalSetError,
                                KernelMatrix, MuField, apply_conv,
                                build_kernel, conv_kernel_hat,
                                detect_exceptional, determinant_scan,
                                modified_fredholm_det, save_determinant_csv,
                                solve_mu)
from nvscatter.scattering import compute_a, compute_b


@pytest.fixture(scope="module")
def table_half(table64):
    return table64(0.5)


def test_conv_matches_direct_sum(table64, grid64):
    """Padded-FFT convolution vs an explicit O(N^4) sum on a coarse grid."""
    grid = make_grid(8.0, 16)
    table = build_greens_table(grid, 0.5)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    khat = conv_kernel_hat(table)
    got = apply_conv(khat, f)
    N = 16
    direct = np.zeros((N, N), dtype=complex)
    for i in range(N):
        for j in range(N):
            blk = table.samples[i - np.arange(N)[:, None] + N,
                                j - np.arange(N)[None, :] + N]
            direct[i, j] = np.sum(blk * f) * grid.h ** 2
    np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-13)


def test_mu_vacuum_is_one(grid64, table_half):
    v0 = sample_potential(grid64, "gaussian", {"A": 0.0, "sigma": 1.0})
    mu = solve_mu(v0, table_half)
    np.testing.assert_array_equal(mu.samples, 1.0)
    assert mu.iterations == 0


def test_mu_residual_below_tol(gauss64, table_half):
    mu = solve_mu(gauss64, table_half)
    assert mu.residual < 1e-10
    assert mu.iterations > 0
    assert mu.lam == 0.5


def _lgmres_mu(v, table):
    """Oracle: the same FFT operator and Born start solved by scipy's
    lgmres, a different Krylov method from solve_mu's."""
    N = v.grid.N
    khat = conv_kernel_hat(table)

    def matvec(x):
        m = x.reshape(N, N)
        return (m - apply_conv(khat, v.samples * m)).ravel()

    op = LinearOperator((N * N, N * N), matvec=matvec, dtype=complex)
    x0 = (1.0 + apply_conv(khat, v.samples)).ravel()
    x, info = lgmres(op, np.ones(N * N, dtype=complex), x0=x0,
                     rtol=0.05 * lippmann.MU_TOL, atol=0.0)
    assert info == 0
    return MuField(table.lam, v.grid, x.reshape(N, N), np.nan, 0)


@pytest.mark.parametrize("lam", [0.45 * np.exp(0.7j), 2.2 * np.exp(0.3j),
                                 np.exp(0.4j)],
                         ids=["0.45e^0.7i", "2.2e^0.3i", "e^0.4i"])
def test_mu_matches_lgmres_oracle(gauss64, table64, lam):
    table = table64(lam)
    mu = solve_mu(gauss64, table)
    ref = _lgmres_mu(gauss64, table)
    for f in (compute_a, compute_b):
        assert f(gauss64, mu) == pytest.approx(f(gauss64, ref), rel=1e-12)
    assert mu.residual <= lippmann.MU_TOL
    assert 1 <= mu.iterations <= 30 * lippmann.MU_MAXITER


def test_mu_nonconvergence_raises(gauss64, table_half, monkeypatch):
    """One restart cycle cannot reach a residual of 1e-30: a real
    non-convergence, nothing mocked."""
    monkeypatch.setattr(lippmann, "MU_MAXITER", 1)
    with pytest.raises(ExceptionalSetError, match="non-convergent"):
        solve_mu(gauss64, table_half, tol=1e-30)


def test_mu_born_expansion_order(grid64, table_half):
    """mu - mu_born = O(A^2): halving A divides the gap by ~4."""
    gaps = []
    for A in (0.2, 0.1):
        v = sample_potential(grid64, "gaussian", {"A": A, "sigma": 1.0})
        mu = solve_mu(v, table_half)
        born = 1.0 + apply_conv(conv_kernel_hat(table_half), v.samples)
        gaps.append(np.max(np.abs(mu.samples - born)))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)


def test_mu_grid_mismatch_rejected(gauss64):
    small = make_grid(8.0, 16)
    table = build_greens_table(small, 0.5)
    with pytest.raises(ValueError, match="grids differ"):
        solve_mu(gauss64, table)


def test_weighted_solve_agrees_with_fft_solve(gauss64, table_half):
    """Two independent discretizations of the same equation: a dense solve
    of (I - A) mu = 1 on the support against the FFT-Krylov solve."""
    mu = solve_mu(gauss64, table_half)
    kern = build_kernel(gauss64, table_half)
    mu_dense = np.linalg.solve(np.eye(kern.size) - kern.dense,
                               np.ones(kern.size, dtype=complex))
    gap = np.max(np.abs(mu.samples[kern.mask] - mu_dense))
    assert gap < 1e-8


def test_kernel_support_restriction(gauss64, table_half):
    kern = build_kernel(gauss64, table_half)
    assert kern.size == int(np.sum(kern.mask))
    assert 0 < kern.size < 64 * 64
    # the weighted block's Frobenius norm is its part of the full-row HS norm
    w = _weights(kern, 1.0)
    block_fro = np.linalg.norm(kern.dense * w[None, :] / w[:, None])
    assert kern.hs_norm >= block_fro > 0


def _weights(kern, eps):
    """(1 + |z|)^((2 + eps)/2) on the kernel's support nodes."""
    return (1.0 + np.abs(kern.grid.nodes()[kern.mask])) ** ((2.0 + eps) / 2.0)


def test_kernel_trace_is_diagonal_sum(gauss64, table_half):
    kern = build_kernel(gauss64, table_half)
    assert kern.trace == pytest.approx(np.trace(kern.dense), rel=1e-12)


def test_kernel_rejects_bad_eps(gauss64, table_half):
    with pytest.raises(ValueError, match="eps"):
        build_kernel(gauss64, table_half, eps=0.0)


def _eigen_delta(kern):
    """Oracle: prod (1 - mu_i) e^{mu_i} over all eigenvalues of the block."""
    mu = np.linalg.eigvals(kern.dense)
    return complex(np.prod((1.0 - mu) * np.exp(mu)))


def test_lu_matches_eigen_oracle(gauss64, table_half):
    kern = build_kernel(gauss64, table_half)
    before = kern.dense.copy()
    d = modified_fredholm_det(kern)
    np.testing.assert_array_equal(kern.dense, before)  # kernel untouched
    assert d.delta == pytest.approx(_eigen_delta(kern), rel=1e-9)
    assert d.method == "lu-logdet"
    assert d.n_eigs == kern.size
    assert d.flag == ""
    assert 0.5 < d.diagnostics["min_pivot_ratio"] <= 1.0


def test_lu_sign_change_matches_eigen_oracle(grid64):
    """Gaussian A = -20 on the ray arg lambda = 0.3: Delta changes sign
    between |lambda| = 0.5 and 0.55, so the LU sign (pivot parity) must
    agree with the eigenvalue product on both sides."""
    v = sample_potential(grid64, "gaussian", {"A": -20.0, "sigma": 1.0})
    deltas = []
    for r in (0.5, 0.55):
        table = build_greens_table(grid64, r * np.exp(0.3j))
        kern = build_kernel(v, table)
        d = modified_fredholm_det(kern)
        assert d.delta == pytest.approx(_eigen_delta(kern), rel=1e-9)
        deltas.append(d.delta.real)
    assert deltas[0] > 0 > deltas[1]


def _support(v):
    return np.abs(v.samples) > 1e-12 * np.max(np.abs(v.samples))


def _hs_norm_loop(v, table, eps):
    """Oracle: full-row HS norm by direct summation, in chunks of columns."""
    mask = _support(v)
    w = (1.0 + np.abs(v.grid.nodes()[mask])) ** ((2.0 + eps) / 2.0)
    inv_w2 = (1.0 + np.abs(v.grid.nodes())) ** (-(2.0 + eps))
    return _hs_loop(v, table, mask, w, inv_w2)


def _hs_loop(v, table, mask, w, inv_w2):
    """HS norm of the columns `mask` (column weights w) over all rows with
    squared row weights inv_w2, by direct summation."""
    N, h = v.grid.N, v.grid.h
    ii, jj = np.nonzero(mask)
    col = v.samples[mask] * h * h * w
    ai = np.arange(N)[:, None, None]
    aj = np.arange(N)[None, :, None]
    hs2 = 0.0
    for start in range(0, ii.size, 256):
        sl = slice(start, start + 256)
        gb = table.samples[ai - ii[None, None, sl] + N,
                           aj - jj[None, None, sl] + N]
        s = np.einsum("abk,ab->k", np.abs(gb) ** 2, inv_w2)
        hs2 += float(np.sum(np.abs(col[sl]) ** 2 * s))
    return np.sqrt(hs2)


@pytest.mark.parametrize("eps", [1.0, 2.5])
def test_hs_norm_matches_direct_sum(gauss64, table_half, eps):
    kern = build_kernel(gauss64, table_half, eps=eps)
    assert kern.hs_norm == pytest.approx(
        _hs_norm_loop(gauss64, table_half, eps), rel=1e-12)


def _full_support_kernel(v, table, monkeypatch):
    """The kernel on all of S: with a zero budget no column is dropped."""
    with monkeypatch.context() as m:
        m.setattr(lippmann, "DELTA_SUPPORT_TOL", 0.0)
        return build_kernel(v, table)


@pytest.mark.parametrize("lam", [0.02, 0.45 * np.exp(0.7j), 1.0, 2.2])
def test_support_cut_is_certified(gauss64, table64, lam, monkeypatch):
    """|Delta_cut - Delta_S| <= support_bound <= DELTA_SUPPORT_TOL, with
    Delta_S from an LU on the whole reference support S."""
    table = table64(lam)
    kern = build_kernel(gauss64, table)
    full = _full_support_kernel(gauss64, table, monkeypatch)
    support = _support(gauss64)
    np.testing.assert_array_equal(full.mask, support)
    assert full.support_bound == 0.0
    assert kern.support_nodes == full.size == int(np.sum(support))
    # the cut drops columns, at a |v| level, and only from S
    assert kern.size < full.size
    assert not np.any(kern.mask & ~support)
    absv = np.abs(gauss64.samples)
    assert absv[kern.mask].min() > absv[support & ~kern.mask].max()
    d_cut = modified_fredholm_det(kern)
    d_full = modified_fredholm_det(full)
    assert abs(d_cut.delta - d_full.delta) <= kern.support_bound <= 1e-10
    assert d_cut.diagnostics["support_bound"] == kern.support_bound
    assert d_cut.diagnostics["support_nodes"] == full.size
    assert kern.hs_norm == full.hs_norm


def test_support_cut_bound_matches_direct_sum(gauss64, table_half):
    """support_bound = |A - B|_HS exp((|A|_HS + |B|_HS + 1)^2 / 2) with each
    unweighted HS norm summed directly over the rows of S."""
    kern = build_kernel(gauss64, table_half)
    support = _support(gauss64)
    rows = support.astype(float)

    def hs(cols):
        return _hs_loop(gauss64, table_half, cols, 1.0, rows)

    dropped = hs(support & ~kern.mask)
    assert dropped > 0
    expect = dropped * np.exp(0.5 * (hs(support) + hs(kern.mask) + 1.0) ** 2)
    assert kern.support_bound == pytest.approx(expect, rel=1e-10)


def test_support_cut_keeps_S_for_strong_potential(grid64):
    """Gaussian A = -20: over the rows of S, |A|_HS is 4.9, 9.1 and 12.6 at
    |lambda| = 0.2, 0.45 and 1, so the exp factor is above 1e25, nothing
    can be certified and the kernel is exactly S, never more."""
    v = sample_potential(grid64, "gaussian", {"A": -20.0, "sigma": 1.0})
    support = _support(v)
    for lam in (0.2 * np.exp(0.3j), 0.45 * np.exp(0.7j), 1.0):
        kern = build_kernel(v, build_greens_table(grid64, lam))
        np.testing.assert_array_equal(kern.mask, support)
        assert kern.size == kern.support_nodes
        assert kern.support_bound == 0.0


def test_support_cut_can_drop_all_of_S(grid64, table_half, monkeypatch):
    """Gaussian A = 1e-10: |A|_HS = 4.9e-11 is under the budget
    1e-10 e^(-1/2) = 6.1e-11, so every column goes, Delta = 1 within the
    bound, and hs_norm stays over S."""
    v = sample_potential(grid64, "gaussian", {"A": 1e-10, "sigma": 1.0})
    kern = build_kernel(v, table_half)
    full = _full_support_kernel(v, table_half, monkeypatch)
    assert kern.size == 0 and not kern.mask.any()
    d = modified_fredholm_det(kern)
    assert d.delta == 1.0
    assert abs(modified_fredholm_det(full).delta - 1.0) <= \
        d.diagnostics["support_bound"] <= 1e-10
    assert d.diagnostics["support_nodes"] == full.size
    assert d.diagnostics["min_pivot_ratio"] == 1.0
    assert d.hs_norm == full.hs_norm > 0


def test_support_cut_masks_match_symmetry_partners(gauss64, table64):
    """The cut is a |v| level, so lambda, 1/conj(lambda) and i lambda keep
    the same nodes and Delta's symmetries are not broken by the cut."""
    lam = 0.45 * np.exp(0.7j)
    masks = [build_kernel(gauss64, table64(l)).mask
             for l in (lam, 1.0 / np.conj(lam), 1j * lam)]
    for mask in masks[1:]:
        np.testing.assert_array_equal(mask, masks[0])


def test_eigenvalue_one_is_flagged():
    """A synthetic block with eigenvalue 1: near-zero and exactly zero pivot."""
    grid = make_grid(8.0, 16)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
    rotated = q @ np.diag([1.0, 0.5, 0.25, -0.3, 0.1, 0.0]) @ q.T
    for dense in (rotated.astype(complex), np.diag([0.5, 1.0, 0.2]) + 0j):
        n = dense.shape[0]
        kern = KernelMatrix(0.5 + 0j, grid, np.zeros((16, 16), bool),
                            dense, complex(np.trace(dense)), 1.0, 0.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            d = modified_fredholm_det(kern)
        assert "exceptional" in d.flag
        assert d.diagnostics["min_pivot_ratio"] < 1e-12
        assert abs(d.delta) < 1e-12
        assert d.n_eigs == n


def test_kernel_cap_message(monkeypatch):
    grid = make_grid(8.0, 16)
    v = sample_potential(grid, "gaussian", {"A": 0.5, "sigma": 1.0})
    table = GreensTable(0.5 + 0j, grid, np.zeros((32, 32), complex), {})
    monkeypatch.setattr(lippmann, "DENSE_N_CAP", 8)
    with pytest.raises(ValueError, match="capped at N=8; got N=16"):
        build_kernel(v, table)


def test_determinant_weight_independence(gauss64, table_half):
    """Delta is a similarity invariant: the unweighted block's Delta equals
    that of the weighted Hilbert-Schmidt kernel for any weight exponent."""
    kern = build_kernel(gauss64, table_half)
    d = modified_fredholm_det(kern)
    for eps in (1.0, 2.5):
        w = _weights(kern, eps)
        weighted = replace(kern, dense=kern.dense * w[None, :] / w[:, None])
        assert d.delta == pytest.approx(
            modified_fredholm_det(weighted).delta, rel=1e-9)


def test_determinant_born_scaling(grid64, table_half):
    """ln Delta = O(A^2) with an O(A^3) correction.

    Halving A should take the ratio |ln Delta(A)| / |ln Delta(A/2)| toward
    4 from above (the cubic term has the same sign here).
    """
    vals = []
    for A in (0.4, 0.2, 0.1):
        v = sample_potential(grid64, "gaussian", {"A": A, "sigma": 1.0})
        d = modified_fredholm_det(build_kernel(v, table_half))
        vals.append(abs(np.log(d.delta)))
    r1 = vals[0] / vals[1]
    r2 = vals[1] / vals[2]
    assert r1 == pytest.approx(4.0, rel=0.1)
    assert r2 == pytest.approx(4.0, rel=0.1)
    assert 4.0 < r2 < r1  # correction shrinks with A


def test_determinant_empty_support(grid64, table_half):
    v0 = sample_potential(grid64, "gaussian", {"A": 0.0, "sigma": 1.0})
    kern = build_kernel(v0, table_half)
    d = modified_fredholm_det(kern)
    assert d.delta == 1.0
    assert d.n_eigs == 0
    assert d.diagnostics == {"support_bound": 0.0, "support_nodes": 0,
                             "min_pivot_ratio": 1.0}


def test_determinant_unknown_method(gauss64, table_half):
    kern = build_kernel(gauss64, table_half)
    with pytest.raises(ValueError, match="method"):
        modified_fredholm_det(kern, method="qr")


def test_scan_and_detect_no_exceptional_for_weak_potential(grid64):
    v = sample_potential(grid64, "gaussian", {"A": 0.2, "sigma": 1.0})
    lgrid = make_lambda_grid(annulus_radii=[0.5], phases=2, t_samples=2)
    scan = detect_exceptional(v, lgrid)
    assert scan.flagged == []
    assert len(scan.samples) == len(lgrid)
    assert scan.t_value is not None
    # Delta stays near 1 for a weak potential
    assert abs(scan.t_value - 1.0) < 0.05


def test_scan_flags_failures_instead_of_raising(gauss64, monkeypatch):
    lgrid = make_lambda_grid(annulus_radii=[0.5], phases=1, t_samples=0)
    monkeypatch.setattr(greens, "ERROR_THRESHOLD", 1e-30)
    samples = determinant_scan(gauss64, lgrid)
    assert len(samples) == 2
    assert all(s.flag.startswith("failed:") for s in samples)
    assert all(np.isnan(s.delta.real) for s in samples)
    for s in samples:
        assert set(s.diagnostics) == {"support_bound", "support_nodes",
                                      "min_pivot_ratio"}
        assert all(np.isnan(x) for x in s.diagnostics.values())


def test_determinant_csv(tmp_path):
    samples = [DeterminantSample(0.5 + 0j, 0.25 + 1e-12j, 10, "eigen", 0.7)]
    path = tmp_path / "det.csv"
    save_determinant_csv(samples, path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "re_lambda"
    assert float(rows[1][4]) == 0.25
    assert rows[1][6] == "eigen"
