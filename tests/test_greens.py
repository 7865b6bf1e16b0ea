import os

import numpy as np
import pytest
from scipy.special import exp1, expn, k0

from nvscatter import greens
from nvscatter.greens import (CELL_AVG_RADIUS, EXP_FLOOR, LOG_CELL_AVG,
                              TENSOR_BLOCK, GreensTable, QuadratureError,
                              _cell_averages,
                              _floored_exp, _scaled_expn, _SymbolQuadrature,
                              _table_axis, _tail_coefficients, cache_key,
                              build_greens_table, greens_points, load_table,
                              save_table, singular_points,
                              symbol_denominator)
from nvscatter.grids import make_grid, sample_potential
from nvscatter.scattering import solve_point
from oracles import (direct_symbol_quadrature, full_exp_residue,
                     full_exp_tensor, greens_G, reference_G_on_T,
                     reference_G_on_T_hankel, table_value, wide_zone_tensor)

LAM_SAMPLES = [0.5, 0.5 * np.exp(0.8j), 2.0, 1.7 * np.exp(-2.1j),
               np.exp(0.45j), 1j]


def closed_form_on_T(z, lam=1.0):
    """g(z, lam) = exp((lam conj(z) + z / lam) / 2) (-K0(|z|) / 2 pi) for
    |lam| = 1; lam = 1 is the classical exp(x1) K0 case."""
    z = np.asarray(z, dtype=complex)
    pref = np.exp(0.5 * (lam * np.conj(z) + z / lam))
    return pref * (-k0(np.abs(z)) / (2.0 * np.pi))


def _off_patch(N):
    """Mask of a 2N x 2N table without its origin patch."""
    off = np.ones((2 * N, 2 * N), dtype=bool)
    patch = slice(N - CELL_AVG_RADIUS, N + CELL_AVG_RADIUS + 1)
    off[patch, patch] = False
    return off


def _k0_error(table):
    """Largest |table - closed form| off the patch, for |lambda| = 1."""
    off = _off_patch(table.grid.N)
    ref = closed_form_on_T(table.offsets()[off], table.lam)
    return float(np.max(np.abs(table.samples[off] - ref)))


def test_singular_points_lam_half():
    pts = singular_points(0.5)
    assert pts[0] == 0
    assert pts[1] == pytest.approx(1.5j, abs=1e-14)


def test_singular_points_lam_2i():
    pts = singular_points(2j)
    assert pts[1] == pytest.approx(1.5, abs=1e-14)


def test_singular_points_on_T_single():
    assert singular_points(np.exp(0.3j)) == [0j]


@pytest.mark.parametrize("lam", [0.5, 2j, 1.7 * np.exp(-2.1j)])
def test_second_zero_annihilates_symbol(lam):
    zeta0 = singular_points(lam)[1]
    assert abs(symbol_denominator(zeta0, lam)) < 1e-13
    assert abs(symbol_denominator(0.0, lam)) == 0.0


def test_lambda_one_closed_form():
    z = np.array([1.0, -0.75, 2.0 + 1.0j, 0.25j, -1.0 - 0.5j])
    got = greens_points(1.0, z)
    np.testing.assert_allclose(got, closed_form_on_T(z),
                               rtol=1e-7, atol=1e-12)


def test_unit_circle_reduces_to_k0():
    # exp(-(lam zbar + z/lam)/2) g == -K0(|z|)/(2 pi) for any |lam| = 1
    lam = np.exp(0.45j)
    for z in (1.0 + 0.0j, 0.5 - 1.25j, 2.0j):
        g = greens_points(lam, z)[0]
        G = np.exp(-0.5 * (lam * np.conj(z) + z / lam)) * g
        assert G == pytest.approx(reference_G_on_T(abs(z)), rel=1e-7)


def test_reference_routes_agree():
    for r in (0.3, 1.0, 2.5):
        a = reference_G_on_T(r)
        b = reference_G_on_T_hankel(r)
        assert a == pytest.approx(b, rel=1e-12)
        assert abs(a.imag) < 1e-15


def test_parity_symmetry():
    # g(-z, lam) = g(z, -lam), by xi -> -xi in the defining integral
    z = np.array([1.0 + 0.5j, -0.3 + 1.2j, 2.0])
    for lam in (0.5, 1.3 * np.exp(0.9j)):
        a = greens_points(lam, -z)
        b = greens_points(-lam, z)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


def test_conjugation_symmetry():
    # conj(g(z, lam)) = g(conj z, conj lam)
    z = np.array([1.0 + 0.5j, -0.3 + 1.2j])
    for lam in (0.7 * np.exp(0.4j), 1.6 * np.exp(-1.1j)):
        a = np.conj(greens_points(lam, z))
        b = greens_points(np.conj(lam), np.conj(z))
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("lam", LAM_SAMPLES)
def test_against_brute_symbol_quadrature(lam):
    """Residue evaluator vs a slow, independent 2D quadrature oracle."""
    for z in (0.8 + 0.3j, -1.1 + 0.9j):
        got = greens_points(lam, z)[0]
        ref = direct_symbol_quadrature(z, lam, xi_max=300.0, n=6000)
        assert got == pytest.approx(ref, rel=2e-3, abs=2e-6)


def test_oracle_normalization_pins_scale():
    # at lambda = 1, z = i the closed form is -K0(1)/(2 pi) ~ -0.066948
    ref = -k0(1.0) / (2.0 * np.pi)
    got = direct_symbol_quadrature(1j, 1.0, xi_max=300.0, n=6000)
    assert got.real == pytest.approx(ref, rel=5e-4)
    assert abs(got.imag) < 1e-5


def test_refinement_convergence():
    """The table against the same tensor evaluation and origin patch at
    doubled Gauss order."""
    grid = make_grid(8.0, 32)
    N, h = grid.N, grid.h
    t1 = build_greens_table(grid, 0.6)
    fine = _SymbolQuadrature(0.6, 2.0 * grid.R, refine=2)
    shifts, base, order = _table_axis(N, h)
    d = (np.arange(2 * N) - N) * h
    block = np.gcd(2 * N, TENSOR_BLOCK)
    t2 = fine.eval_tensor(shifts, base, np.arange(0, 2 * N, block) * h,
                          d[:block])[order]
    patch = slice(N - CELL_AVG_RADIUS, N + CELL_AVG_RADIUS + 1)
    t2[patch, patch] = _cell_averages(fine, h, CELL_AVG_RADIUS)
    assert np.max(np.abs(t1.samples - t2)) < 1e-9


def test_non_finite_table_raises(monkeypatch):
    """A table with a NaN entry is refused, and solve_point flags the
    failure; the NaN comes from a tail patched to return NaN."""
    def nan_tail(self, x1, x2):
        return np.full(np.broadcast(x1, x2).shape, np.nan + 0j)

    monkeypatch.setattr(_SymbolQuadrature, "_tail", nan_tail)
    grid = make_grid(8.0, 16)
    with pytest.raises(QuadratureError, match="not finite"):
        build_greens_table(grid, 0.5)
    v = sample_potential(grid, "gaussian", {"A": 0.5, "sigma": 1.0})
    rec, mu = solve_point(v, 0.5)
    assert mu is None
    assert rec.flags[0].startswith("table-failed:")


def test_tail_overflow_table_is_finite():
    """At R = 30, |lambda| = 0.02 a tail prefactor exp(-i m x2) alone
    overflows on the x1 = 0 column (|m| ~ 25, |x2| up to 60); the scaled
    tail forms no such factor, so the table is finite and its stage passes.
    The one flag left is b's aliasing guard (|kappa| = 50 at h = 3.75)."""
    grid = make_grid(30.0, 16)
    lam = 0.02 * np.exp(0.9j)
    assert np.all(np.isfinite(build_greens_table(grid, lam).samples))
    v = sample_potential(grid, "gaussian", {"A": 0.5, "sigma": 1.0})
    rec, mu = solve_point(v, lam)
    assert mu is not None and np.isfinite(rec.a)
    assert rec.delta is not None and np.isfinite(rec.delta.delta)
    assert [f.split(":")[0] for f in rec.flags] == ["b-aliased"]


def test_table_matches_point_evaluator(table64, grid64):
    t = table64(0.5)
    N, h = grid64.N, grid64.h
    for (di, dj) in ((5, -3), (-20, 11), (40, 40)):
        z = complex(di * h, dj * h)
        direct = greens_points(0.5, z)[0]
        assert t.samples[N + di, N + dj] == pytest.approx(direct, rel=1e-11)
        assert table_value(t, z) == t.samples[N + di, N + dj]


def _cell_averages_pointwise(quad, h, radius, sub_order=6):
    """Oracle: the origin patch cell by cell, 36 scattered points per cell."""
    u, w = np.polynomial.legendre.leggauss(sub_order)
    ua, ub = np.meshgrid(u, u, indexing="ij")
    wa = np.outer(w, w).ravel() / 4.0
    ua = ua.ravel() * h / 2.0
    ub = ub.ravel() * h / 2.0
    out = np.empty((2 * radius + 1, 2 * radius + 1), dtype=complex)
    for d1 in range(-radius, radius + 1):
        for d2 in range(-radius, radius + 1):
            x1 = d1 * h + ua
            x2 = d2 * h + ub
            vals = quad.eval_points(x1, x2)
            if d1 == 0 and d2 == 0:
                vals = vals - np.log(np.hypot(x1, x2)) / (2.0 * np.pi)
                avg = np.sum(wa * vals) + (np.log(h) + LOG_CELL_AVG) / (2.0 * np.pi)
            else:
                avg = np.sum(wa * vals)
            out[d1 + radius, d2 + radius] = avg
    return out


@pytest.mark.parametrize("lam", [0.45 * np.exp(0.7j), 10 * np.exp(0.2j),
                                 np.exp(0.7j), 0.97 * np.exp(2j)])
def test_cell_averages_match_pointwise_oracle(lam, grid64):
    h = grid64.h
    quad = _SymbolQuadrature(lam, 2.0 * grid64.R)
    got = _cell_averages(quad, h, 1)
    ref = _cell_averages_pointwise(quad, h, 1)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


FACTORED_LAMS = [0.45 * np.exp(0.7j), 0.1 * np.exp(0.3j), 0.02 * np.exp(0.9j),
                 np.exp(0.4j), 0.999 * np.exp(2j), 2.2 * np.exp(1.1j),
                 10 * np.exp(0.2j)]


@pytest.mark.parametrize("lam", FACTORED_LAMS)
@pytest.mark.parametrize("N", [32, 64, 128])
def test_factored_table_matches_full_exp_oracle(N, lam):
    grid = make_grid(8.0, N)
    table = build_greens_table(grid, lam)
    quad = _SymbolQuadrature(lam, 2.0 * grid.R)
    ref = full_exp_tensor(quad, (np.arange(2 * N) - N) * grid.h)
    # the origin patch holds cell averages, checked against their own oracle
    off = _off_patch(N)
    diff = np.abs(table.samples - ref)[off]
    assert np.max(diff) <= 1e-12 * np.max(np.abs(ref[off]))


def _subnormal_count(a):
    parts = np.concatenate([a.real.ravel(), a.imag.ravel()])
    return int(np.count_nonzero((parts != 0)
                                & (np.abs(parts) < np.finfo(float).tiny)))


@pytest.mark.parametrize("N", [32, 64, 128])
def test_table_factors_have_no_subnormals(N):
    grid = make_grid(8.0, N)
    h = grid.h
    shifts, base, _ = _table_axis(N, h)
    d = (np.arange(2 * N) - N) * h
    u = np.polynomial.legendre.leggauss(6)[0] * h / 2.0
    patch = (np.array([-h, 0.0, h])[:, None] + u[None, :]).ravel()
    for lam in FACTORED_LAMS:
        quad = _SymbolQuadrature(lam, 2.0 * grid.R)
        # the residue factors of the table's and the origin patch's GEMMs
        factors = [quad._residue_tensor(shifts, base),
                   quad._residue_tensor(patch, np.zeros(1))]
        assert [_subnormal_count(f) for f in factors] == [0, 0], lam
        # the full-exp factor has them, so the check above can fail
        assert _subnormal_count(full_exp_residue(quad, quad.nodes_in, d)) > 0
    f = _floored_exp(np.array([EXP_FLOOR - 1e-9, EXP_FLOOR]) + 1j)
    assert f[0] == 0 and _subnormal_count(f[1] * f[1]) == 0


def _w_grid():
    """w on 57 radii from 1e-3 to 1e4 and 73 angles across the cut plane."""
    r = np.logspace(-3.0, 4.0, 57)
    theta = np.linspace(-np.pi + 1e-6, np.pi - 1e-6, 73)
    return (r[:, None] * np.exp(1j * theta)[None, :]).ravel()


def test_scaled_expn_against_scipy():
    """e^w E_1(w) against scipy's exp1 wherever that product is finite
    (scipy's complex exp1 is itself off by up to 3.6e-13 near |w| = 4.2),
    and e^x E_n(x), n <= 6, against scipy's real expn on x > 0."""
    w = _w_grid()
    with np.errstate(over="ignore", invalid="ignore"):
        ref = np.exp(w) * exp1(w)
    finite = np.isfinite(ref)
    assert finite.sum() > 3000
    got = _scaled_expn(w[finite], 1)[0]
    assert np.max(np.abs(got / ref[finite] - 1.0)) < 1e-12
    x = np.logspace(-3.0, 2.8, 60)
    got = _scaled_expn(x + 0j, 6)
    for n in range(1, 7):
        ref = np.exp(x) * expn(n, x)
        assert np.max(np.abs(got[n - 1] / ref - 1.0)) < 2e-14, n


def test_scaled_expn_recurrence():
    """w e_n + n e_{n+1} = 1 for the scaled e_n = e^w E_n(w), on both sides
    of each switch between the recurrence and the continued fraction."""
    w = _w_grid()
    e = _scaled_expn(w, 6)
    n = np.arange(1, 6)[:, None]
    assert np.max(np.abs(w * e[:-1] + n * e[1:] - 1.0)) < 1e-14


def test_scaled_expn_large_w_series():
    """For |w| >= 200, e^w E_n(w) = (1/w) sum_k (-1)^k (n)_k / w^k; 14 terms
    leave under 1e-15."""
    w = _w_grid()
    w = w[np.abs(w) >= 200.0]
    e = _scaled_expn(w, 6)
    for n in range(1, 7):
        term, series = np.ones_like(w), np.zeros_like(w)
        for k in range(14):
            series += term
            term = -term * (n + k) / w
        assert np.max(np.abs(e[n - 1] * w / series - 1.0)) < 1e-14, n


def test_scaled_expn_unconverged_raises():
    """An entry whose continued fraction never converges (here a NaN)
    raises instead of returning an unconverged value."""
    with np.errstate(invalid="ignore"), \
            pytest.raises(QuadratureError, match="did not converge"):
        _scaled_expn(np.array([3.0, np.nan]) + 0j, 6)


@pytest.mark.parametrize("a", [0.0, 0.3, 0.75])
@pytest.mark.parametrize("phase", [0.0, 0.4])
def test_tail_coefficients_residual(a, phase):
    """(u / S) e^{-(S - u) a} - sum_n c_n(a) u^-n is O(u^-6), S =
    sqrt(u^2 + 1): it falls 64x per halving of 1/|u|."""
    res = []
    for eps in (0.04, 0.02, 0.01):
        u = np.exp(1j * phase) / eps
        S = np.sqrt(u * u + 1.0)
        exact = u / S * np.exp(-a / (S + u))   # S - u = 1 / (S + u)
        c = _tail_coefficients(np.array(a))
        res.append(abs(exact - np.sum(c * u ** -np.arange(6.0))))
    for coarse, fine in zip(res[:-1], res[1:]):
        assert 50.0 < coarse / fine < 80.0
    assert res[-1] < 1e-12


@pytest.mark.parametrize("N", [64, 128])
def test_table_matches_k0_on_T(N):
    """Off the origin patch the table is the K0 closed form to 1e-12 on
    |lambda| = 1; the x1 = 0 column next to the patch, which the tail
    serves most, was 2.5e-9 off under the one-term E1 tail."""
    grid = make_grid(8.0, N)
    for lam in (np.exp(0.7j), np.exp(2.0j)):
        assert _k0_error(build_greens_table(grid, lam)) <= 1e-12, lam


@pytest.mark.parametrize("lam", FACTORED_LAMS + [0.02j, 50 * np.exp(1.2j)])
def test_table_matches_wide_zone_oracle(lam, table64, grid64):
    """Off T, the six-term tail against Gauss panels to |xi2| = 1760 and a
    one-term E1 tail beyond (about 1e-11 from exact)."""
    N = grid64.N
    quad = _SymbolQuadrature(lam, 2.0 * grid64.R)
    ref = wide_zone_tensor(quad, (np.arange(2 * N) - N) * grid64.h,
                           2.0 * grid64.R)
    off = _off_patch(N)
    assert np.max(np.abs(table64(lam).samples - ref)[off]) <= 3e-11


@pytest.mark.parametrize("N", [64, 128])
def test_quarter_turn_identity(N):
    """g(z, i lambda) = g(-i z, lambda), i.e. T_{i lambda}[i, j] =
    T_lambda[j, 2N - i] for i >= 1, origin patch included."""
    grid = make_grid(8.0, N)
    for lam in (np.exp(0.4j), 0.45 * np.exp(0.7j), 2.2 * np.exp(1.1j)):
        t = build_greens_table(grid, lam).samples
        t_i = build_greens_table(grid, 1j * lam).samples
        rotated = t[:, :0:-1].T
        assert np.max(np.abs(t_i[1:] - rotated)) <= 1e-12, lam


@pytest.mark.parametrize("terms", [2, 4])
def test_error_estimate_tracks_truncated_tail(terms, monkeypatch):
    """With the tail cut to 2 or 4 terms the table is 1e-6 or 1e-10 off the
    K0 closed form, and error_estimate (doubled Gauss order and xi_inner)
    reads that error to within 3x."""
    coefficients = greens._tail_coefficients
    monkeypatch.setattr(greens, "_tail_coefficients",
                        lambda a: coefficients(a)[:terms])
    table = build_greens_table(make_grid(8.0, 64), np.exp(0.7j))
    err, est = _k0_error(table), table.record["error_estimate"]
    assert err > 1e-11
    assert err / 3.0 <= est <= 3.0 * err


def test_table_origin_entry_is_cell_average(table64, grid64):
    # the z = 0 entry stores a finite cell average, not g(0) (divergent)
    t = table64(0.5)
    N, h = grid64.N, grid64.h
    val = t.samples[N, N]
    assert np.isfinite(val)
    # cell average of the log singularity dominates: right order of magnitude
    assert abs(val - np.log(h) / (2 * np.pi)) < 1.0


def test_table_value_rejects_off_grid(table64):
    t = table64(0.5)
    with pytest.raises(ValueError, match="difference-grid"):
        table_value(t, 0.1234 + 0.0j)
    with pytest.raises(ValueError, match="outside"):
        table_value(t, 100.0 + 0.0j)


def test_error_probe_recorded(table64):
    t = table64(0.5)
    assert t.record["error_estimate"] is not None
    assert t.record["error_estimate"] < 1e-5
    assert t.record["rule_id"] == greens.RULE_ID


def test_near_T_flag():
    grid = make_grid(8.0, 16)
    t = build_greens_table(grid, complex(1.0 + 2e-4, 0.0))
    assert t.record["near_T"]
    assert "flag" not in t.record
    t2 = build_greens_table(grid, 0.5)
    assert not t2.record["near_T"]
    assert "flag" not in t2.record


def test_greens_G_prefactor(table64):
    t = table64(0.5)
    z = 1.0 + 0.25j
    expect = np.exp(-0.5 * (0.5 * np.conj(z) + z / 0.5)) * table_value(t, z)
    assert greens_G(t, z) == pytest.approx(expect, rel=1e-15)


def test_save_load_roundtrip(tmp_path, table64):
    t = table64(0.5)
    path = tmp_path / "t.bin"
    save_table(t, path)
    t2 = load_table(path)
    np.testing.assert_array_equal(t2.samples, t.samples)
    assert t2.lam == t.lam
    assert t2.grid == t.grid
    assert t2.record["rule_id"] == t.record["rule_id"]


def test_build_cache_roundtrip(tmp_path):
    grid = make_grid(8.0, 16)
    t1 = build_greens_table(grid, 0.5, cache_dir=tmp_path)
    key = cache_key(0.5, grid, t1.record["rule_id"])
    assert (tmp_path / (key + ".bin")).exists()
    t2 = build_greens_table(grid, 0.5, cache_dir=tmp_path)
    np.testing.assert_array_equal(t1.samples, t2.samples)


def test_cache_rejects_forged_header(tmp_path):
    grid = make_grid(8.0, 16)
    t = build_greens_table(grid, 0.5)
    key = cache_key(0.5, grid, t.record["rule_id"])
    forged = GreensTable(0.5 + 1e-13j, grid, t.samples, t.record)
    save_table(forged, tmp_path / (key + ".bin"))
    with pytest.raises(ValueError, match=key):
        build_greens_table(grid, 0.5, cache_dir=tmp_path)


def test_cache_writes_leave_no_temporary(tmp_path):
    grid = make_grid(8.0, 16)
    for lam in (0.5, 0.5 + 1e-13):
        build_greens_table(grid, lam, cache_dir=tmp_path)
    files = sorted(os.listdir(tmp_path))
    # %.12g would give both lambda the same key
    assert len(files) == 2
    assert all(f.endswith(".bin") for f in files)


def test_lambda_validation():
    with pytest.raises(ValueError):
        greens_points(0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        singular_points(np.inf)
