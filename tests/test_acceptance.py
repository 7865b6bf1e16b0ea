"""End-to-end acceptance suite at the reference resolution.

Reference setup: gaussian potential A = 0.5, sigma = 1 on R = 8, N = 128.
The spectral grid used by the scan-based criteria holds radii
{0.02, 0.1, 0.45} plus their inversion mirrors {50, 10, ~2.22} at four
phases each, and 16 points exactly on the unit circle.

Criteria that need b avoid |lambda| in {0.02, 50} where the oscillatory
factor aliases on the grid (the solver refuses those by design and the
scan records a flag instead); a and Delta carry no oscillatory factor and
are checked there too.

The convergence criterion (N = 64 vs N = 128) uses per-quantity floors:
several residuals are discretely exact or limited by the lambda-plane
quadrature rather than the grid, sit at machine level for BOTH
resolutions, and cannot meaningfully halve.  Floors are set just above
that noise level so a genuine resolution-limited regression still fails.
"""

import numpy as np
import pytest
from scipy.special import k0

from nvscatter.greens import direct_symbol_quadrature, greens_points
from nvscatter.grids import (gaussian_hat, make_grid, make_lambda_grid,
                             sample_potential)
from nvscatter.lippmann import solve_mu
from nvscatter.scattering import born_b, compute_b, scan
from nvscatter.verify import (check_dbar_a, check_dbar_lndelta,
                              check_dbar_mu, check_shift_lemma,
                              soliton_obstruction)

ACC_RADII = [0.02, 0.1, 0.45]
VHAT0 = gaussian_hat(0.5, 1.0, 0.0)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("greens_cache"))


@pytest.fixture(scope="session")
def acc_lgrid():
    return make_lambda_grid(ACC_RADII, phases=4, t_samples=16)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(8.0, 128)


@pytest.fixture(scope="session")
def gauss128(grid128):
    return sample_potential(grid128, "gaussian", {"A": 0.5, "sigma": 1.0})


@pytest.fixture(scope="session")
def scan128(gauss128, acc_lgrid, cache_dir):
    return scan(gauss128, acc_lgrid, table_opts={"cache_dir": cache_dir})


@pytest.fixture(scope="session")
def scan64(acc_lgrid, cache_dir):
    grid = make_grid(8.0, 64)
    v = sample_potential(grid, "gaussian", {"A": 0.5, "sigma": 1.0})
    return scan(v, acc_lgrid, table_opts={"cache_dir": cache_dir})


def _residuals(data):
    """Criteria 3/4/5/9 residuals from one scan, shared with criterion 11."""
    recs, pts = data.records, data.lgrid.points
    ds = [r.delta.delta for r in recs]
    radii = np.array([abs(complex(r.lam)) for r in recs])
    out = {
        "im_delta": max(abs(d.imag) / (1 + abs(d)) for d in ds),
        "delta_limits": max(abs(recs[int(np.argmin(radii))].delta.delta - 1),
                            abs(recs[int(np.argmax(radii))].delta.delta - 1)),
        "ab_on_T": max(abs(r.a - r.b) / (abs(r.a) + abs(r.b))
                       for r, p in zip(recs, pts) if p.on_T),
    }
    tvals = np.array([r.delta.delta
                      for r, p in zip(recs, pts) if p.on_T])
    out["t_spread"] = float(np.ptp(np.abs(tvals)) / abs(tvals.mean()))
    dinv = bconj = bneg = 0.0
    for r, p in zip(recs, pts):
        lam = complex(r.lam)
        if p.on_T or abs(lam) >= 1:
            continue
        mirror = 1.0 / np.conj(lam)
        for r2 in recs:
            lam2 = complex(r2.lam)
            if abs(lam2 - mirror) < 1e-9:
                dinv = max(dinv, abs(r.delta.delta - r2.delta.delta)
                           / (1 + abs(r.delta.delta)))
                if np.isfinite(r.b) and np.isfinite(r2.b):
                    bconj = max(bconj, abs(r2.b - np.conj(r.b)) / abs(r.b))
            if abs(lam2 + mirror) < 1e-9 and np.isfinite(r.b) \
                    and np.isfinite(r2.b):
                bneg = max(bneg, abs(r2.b - r.b) / abs(r.b))
    out.update(delta_inversion=dinv, b_conj_sym=bconj, b_neg_sym=bneg)
    r50 = recs[int(np.argmax(radii))]
    out["a_limit"] = abs(r50.a - VHAT0) / abs(VHAT0)
    return out


# --- criterion 1: vacuum exactness ------------------------------------------


def test_vacuum_exactness(grid128):
    v0 = sample_potential(grid128, "gaussian", {"A": 0.0, "sigma": 1.0})
    data = scan(v0, make_lambda_grid())  # full default spectral grid
    for rec in data.records:
        assert rec.a == 0 and rec.b == 0
        assert abs(rec.delta.delta - 1.0) <= 1e-12
        assert rec.flags == []
    # and through the real solver path on an actual table
    from nvscatter.greens import build_greens_table

    mu = solve_mu(v0, build_greens_table(grid128, 0.5, error_probe=False))
    np.testing.assert_array_equal(mu.samples, 1.0)


# --- criterion 2: unit-circle Bessel identity --------------------------------


def test_t_identity_with_oracle_normalization():
    """G on |lambda| = 1 is proportional to the Bessel reference with the
    constant pinned (to ~1e-4) by brute quadrature of the defining
    integral at lambda = 1; proportionality spread <= 1% over
    0.5 <= |z| <= 4 and 8 circle points."""
    oracle = direct_symbol_quadrature(1j, 1.0, xi_max=300.0, n=6000)
    norm = complex(oracle) / complex(-k0(1.0) / (2 * np.pi))
    assert abs(norm - 1.0) < 1e-3

    zs = np.array([r * np.exp(1j * t) for r in (0.5, 1.0, 2.0, 4.0)
                   for t in (0.0, 0.8, 2.1, 4.4)])
    ref = -k0(np.abs(zs)) / (2 * np.pi)
    worst = 0.0
    for k in range(8):
        lam = complex(np.exp(2j * np.pi * k / 8))
        lam /= abs(lam)
        G = np.exp(-0.5 * (lam * np.conj(zs) + zs / lam)) \
            * greens_points(lam, zs)
        worst = max(worst, float(np.max(np.abs(G / ref / norm - 1.0))))
    assert worst <= 0.01


# --- criterion 3: symmetries --------------------------------------------------


def test_g_conjugation_inversion_symmetry():
    """sup|g(z, 1/conj lam) - conj g(z, lam)| / sup|g| <= 1e-4."""
    zs = np.array([rr * np.exp(1j * tt) for rr in (0.3, 0.9, 2.0, 3.5)
                   for tt in (0.2, 1.4, 2.7, 3.9, 5.1)])
    worst = 0.0
    for s in (0.2, 0.5, 2.0, 5.0):
        for ph in (0.3, 1.6, 2.9, 4.2):
            lam = s * np.exp(1j * ph)
            g1 = greens_points(1.0 / np.conj(lam), zs)
            g2 = np.conj(greens_points(lam, zs))
            worst = max(worst, float(np.max(np.abs(g1 - g2))
                                     / np.max(np.abs(g2))))
    assert worst <= 1e-4


def test_b_and_delta_symmetries(scan128):
    res = _residuals(scan128)
    assert res["b_conj_sym"] <= 1e-4   # b(1/conj lam) = conj b(lam)
    assert res["b_neg_sym"] <= 1e-4    # b(-1/conj lam) = b(lam)
    assert res["delta_inversion"] <= 1e-4


# --- criterion 4: determinant properties --------------------------------------


def test_delta_properties(scan128):
    res = _residuals(scan128)
    assert res["im_delta"] <= 1e-6
    assert res["t_spread"] <= 1e-3
    assert res["delta_limits"] <= 0.01  # at |lambda| in {0.02, 50}


# --- criterion 5: a = b on the unit circle ------------------------------------


def test_ab_on_unit_circle(scan128):
    assert _residuals(scan128)["ab_on_T"] <= 1e-3


# --- criterion 6: Born quadratic error law ------------------------------------


def test_born_scaling(grid128, cache_dir):
    from nvscatter.greens import build_greens_table

    lams = [0.5, 0.3 + 0.4j, 1.8 * np.exp(0.6j)]
    tables = {l: build_greens_table(grid128, l, cache_dir=cache_dir)
              for l in lams}
    sup = []
    for A in (1e-3, 2e-3, 4e-3):
        v = sample_potential(grid128, "gaussian", {"A": A, "sigma": 1.0})
        sup.append(max(abs(compute_b(v, solve_mu(v, tables[l]))
                           - born_b(v, l)) for l in lams))
    assert sup[1] / sup[0] == pytest.approx(4.0, rel=0.15)
    assert sup[2] / sup[1] == pytest.approx(4.0, rel=0.15)


# --- criterion 7: translation covariance --------------------------------------


def test_shift_lemma_24_lambdas(gauss128, cache_dir):
    radii = [0.45, 0.6, 0.8]
    lams = [r * np.exp(2j * np.pi * (k + 0.5) / 4)
            for r in radii + [1.0 / rr for rr in radii] for k in range(4)]
    assert len(lams) == 24
    rec = check_shift_lemma(gauss128, 1.0 + 1.0j, lams,
                            table_opts={"cache_dir": cache_dir})
    assert rec.status == "pass", rec.residual
    assert rec.details["residual_a"] <= 1e-3
    assert rec.details["residual_b"] <= 1e-3


# --- criterion 8: d-bar triad ---------------------------------------------------


def test_dbar_a_128(gauss128, cache_dir):
    rec = check_dbar_a(gauss128, 0.5, tol=0.05,
                       table_opts={"cache_dir": cache_dir})
    assert rec.status == "pass", rec.residual
    assert rec.details["fd_consistent"]


def test_dbar_mu_128(gauss128, cache_dir):
    rec = check_dbar_mu(gauss128, [0.0, 1.0, 1.0j],
                        0.5 * np.exp(0.25j * np.pi), tol=0.05,
                        table_opts={"cache_dir": cache_dir})
    assert rec.status == "pass", rec.residual
    assert rec.details["fd_consistent"]


def test_dbar_lndelta_128(gauss128, cache_dir):
    rec = check_dbar_lndelta(gauss128, 0.4, tol=0.05,
                             table_opts={"cache_dir": cache_dir})
    assert rec.status == "pass", rec.residual
    assert rec.details["fd_consistent"]


# --- criterion 9: large-lambda limit of a ---------------------------------------


def test_a_limit(scan128):
    assert _residuals(scan128)["a_limit"] <= 0.01


# --- criterion 10: soliton obstruction -------------------------------------------


def test_soliton_obstruction_three_velocities():
    rng = np.random.default_rng(42)

    def annulus(rmin, rmax, n=64):
        r = np.exp(rng.uniform(np.log(rmin), np.log(rmax), n))
        return r * np.exp(1j * rng.uniform(0, 2 * np.pi, n))

    lams = np.concatenate([annulus(0.01, 0.1), annulus(10.0, 100.0)])
    for c in (0.0, 1.0, 4.0 + 3.0j):
        rec = soliton_obstruction(c, lams)
        assert rec.status == "pass", (c, rec.details)
        assert rec.details["fraction"] >= 0.95


# --- criterion 11: convergence N = 64 -> N = 128 ----------------------------------

# Floors: most of these quantities are not limited by grid resolution, so
# "halve when N doubles" cannot apply to them literally:
#   * ab_on_T is the same finite sum twice (discretely exact, ~1e-19);
#   * im_delta / delta_inversion are rounding noise of the LU
#     determinant (~1e-12 at N = 128) and b_*_sym the table's quadrature
#     noise (~2e-10); on these diagonal phases neither is limited by the
#     grid, and both can exceed their N = 64 values;
#   * delta_limits and a_limit converge (from below) to small NONZERO
#     continuum values (~2.4e-6 and ~4.5e-5): the finite-N number may
#     legitimately grow toward them as the grid refines.
# Each floor sits at or above the observed N = 128 level, so a genuine
# resolution-limited regression (1e-3-scale) still fails loudly.
FLOORS = {
    "im_delta": 1e-9,
    "t_spread": 1e-11,
    "delta_limits": 1e-5,
    "ab_on_T": 1e-12,
    "delta_inversion": 1e-9,
    "b_conj_sym": 1e-9,
    "b_neg_sym": 1e-9,
    "a_limit": 1e-4,
}


def test_convergence_64_to_128(scan64, scan128):
    r64 = _residuals(scan64)
    r128 = _residuals(scan128)
    for key, floor in FLOORS.items():
        assert r128[key] <= max(r64[key] / 2.0, floor), \
            (key, r64[key], r128[key])
