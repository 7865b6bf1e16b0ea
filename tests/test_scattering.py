import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvscatter.grids import (gaussian_hat, make_grid, make_lambda_grid,
                             sample_potential)
from nvscatter import scattering
from nvscatter.lippmann import MuField, determinant_scan, solve_mu
from nvscatter.scattering import (_b_phase, _kappa, born_b, compute_a,
                                  compute_b, load_scattering, r_coefficient,
                                  save_scattering, save_scattering_csv, scan)


@pytest.fixture(scope="module")
def mu_half(gauss64, table64):
    return solve_mu(gauss64, table64(0.5))


def test_kappa_vanishes_on_T():
    for th in (0.0, 0.7, 2.5):
        assert abs(_kappa(np.exp(1j * th))) < 1e-15
    assert _kappa(0.5) == pytest.approx(0.5 - 2.0)


def test_a_equals_b_on_unit_circle(gauss64, table64):
    lam = complex(np.exp(0.6j))
    lam /= abs(lam)
    mu = solve_mu(gauss64, table64(lam))
    a = compute_a(gauss64, mu)
    b = compute_b(gauss64, mu)
    # kappa vanishes to rounding, so the two sums agree to machine precision
    assert a == pytest.approx(b, abs=1e-15)


def test_born_limit_of_b(grid64, table64):
    """b - b_born vanishes superlinearly in the amplitude A."""
    t = table64(0.5)
    gaps = []
    for A in (0.2, 0.1):
        v = sample_potential(grid64, "gaussian", {"A": A, "sigma": 1.0})
        mu = solve_mu(v, t)
        gaps.append(abs(compute_b(v, mu) - born_b(v, 0.5)))
        assert gaps[-1] < 1e-3 * A ** 2
    assert gaps[0] / gaps[1] > 3.5  # at least O(A^2)


def test_born_b_gaussian_closed_form(gauss64):
    lam = 0.4 * np.exp(0.9j)
    expect = gaussian_hat(0.5, 1.0, 1j * _kappa(lam))
    assert born_b(gauss64, lam) == pytest.approx(expect, rel=1e-10)


def test_b_symmetry_under_inversion(gauss64, table64):
    """kappa(1/conj(lam)) = -kappa(lam) pairs b across the unit circle:
    b(1/conj(lam)) = conj(b(lam)) for real potentials."""
    lam = 0.5 * np.exp(0.3j)
    inv = 1.0 / np.conj(lam)
    b1 = compute_b(gauss64, solve_mu(gauss64, table64(lam)))
    b2 = compute_b(gauss64, solve_mu(gauss64, table64(inv)))
    assert abs(_kappa(inv) + _kappa(lam)) < 1e-15
    assert b2 == pytest.approx(np.conj(b1), rel=1e-7)


def test_b_aliasing_guard(grid64, table64):
    v = sample_potential(grid64, "gaussian", {"A": 0.1, "sigma": 1.0})
    lam = 50.0  # |kappa| ~ 50 >> Nyquist-ish bound at h = 0.25
    mu = solve_mu(v, table64(lam))
    with pytest.raises(ValueError, match="aliasing"):
        compute_b(v, mu)
    # a stays well-defined there
    assert np.isfinite(compute_a(v, mu))


def test_a_large_lambda_limit(grid64, table64):
    """a(lambda) -> vhat(0) as |lambda| -> infinity."""
    v = sample_potential(grid64, "gaussian", {"A": 0.5, "sigma": 1.0})
    mu = solve_mu(v, table64(50.0))
    a = compute_a(v, mu)
    vhat0 = gaussian_hat(0.5, 1.0, 0.0)
    assert abs(a - vhat0) / abs(vhat0) < 1e-3


def test_r_coefficient_signs():
    b = 0.2 + 0.1j
    inside = r_coefficient(0.5, b)
    outside = r_coefficient(2.0, b)
    assert inside == pytest.approx(-np.pi * b / 0.5)
    assert outside == pytest.approx(np.pi * b / 2.0)
    with pytest.raises(ValueError, match="unit circle|lambda"):
        r_coefficient(np.exp(0.2j), b)


def test_b_phase_is_unimodular_and_matches_old_formula(gauss64):
    grid = gauss64.grid
    z = grid.nodes()
    rng = np.random.default_rng(11)
    samples = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
    for lam in (0.5, 0.3 * np.exp(1.1j), 2.2 * np.exp(-0.4j)):
        lam = complex(lam)
        phase = _b_phase(lam, z)
        np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0, atol=1e-15)
        kap = _kappa(lam)
        old = np.exp(-0.5 * (kap * np.conj(z) - np.conj(kap) * z))
        ref = np.sum(old * samples * gauss64.samples) * grid.h ** 2 \
            / (4.0 * np.pi ** 2)
        b = compute_b(gauss64, MuField(lam, grid, samples, 0.0, 0))
        assert b == pytest.approx(ref, rel=1e-14)


def test_grid_mismatch_rejected(gauss64, mu_half):
    small_v = sample_potential(make_grid(8.0, 16), "gaussian",
                               {"A": 0.5, "sigma": 1.0})
    with pytest.raises(ValueError, match="grids differ"):
        compute_a(small_v, mu_half)
    with pytest.raises(ValueError, match="grids differ"):
        compute_b(small_v, mu_half)


def test_scan_vacuum_short_circuit(grid64):
    v0 = sample_potential(grid64, "gaussian", {"A": 0.0, "sigma": 1.0})
    lgrid = make_lambda_grid(annulus_radii=[0.3], phases=2, t_samples=2)
    data = scan(v0, lgrid)
    for rec in data.records:
        assert rec.a == 0 and rec.b == 0
        assert rec.delta.delta == 1.0
        assert rec.delta.diagnostics == {"support_bound": 0.0,
                                         "support_nodes": 0,
                                         "min_pivot_ratio": 1.0}
        assert rec.flags == []
    assert data.vhat0 == 0


def test_vacuum_determinant_scan_builds_no_table(grid64, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("table built for a vanishing potential")

    monkeypatch.setattr(scattering, "build_greens_table", no_table)
    v0 = sample_potential(grid64, "gaussian", {"A": 0.0, "sigma": 1.0})
    lgrid = make_lambda_grid(annulus_radii=[0.3], phases=2, t_samples=2)
    samples = determinant_scan(v0, lgrid)
    assert [s.lam for s in samples] == [p.lam for p in lgrid.points]
    for s in samples:
        assert s.delta == 1.0
        assert s.flag == ""


def test_determinant_scan_is_scan_delta_column():
    grid = make_grid(8.0, 32)
    v = sample_potential(grid, "gaussian", {"A": 0.5, "sigma": 1.0})
    lgrid = make_lambda_grid(annulus_radii=[0.3, 0.6], phases=2,
                             t_samples=2)
    data = scan(v, lgrid)
    assert [r.lam for r in data.records] == [p.lam for p in lgrid.points]
    assert all(r.delta is not None for r in data.records)
    # the Delta column of the scan, bit for bit
    assert [s.delta for s in determinant_scan(v, lgrid)] == \
        [r.delta.delta for r in data.records]


def test_scan_records_follow_grid_order(gauss64):
    lgrid = make_lambda_grid(annulus_radii=[0.5], phases=2, t_samples=2)
    data = scan(gauss64, lgrid, with_determinant=False)
    assert [r.lam for r in data.records] == [p.lam for p in lgrid.points]
    t_recs = data.t_records()
    assert len(t_recs) == 2
    for r in t_recs:
        assert r.a == r.b
    # the record at a grid point, looked up by lambda, is the grid's own
    lam0 = complex(lgrid.points[0].lam)
    hits = [r for r in data.records if abs(complex(r.lam) - lam0) <= 1e-12]
    assert len(hits) == 1 and hits[0] is data.records[0]
    assert not [r for r in data.records if abs(complex(r.lam) - 123.0) <= 1e-12]


def test_scan_flags_aliasing_not_fatal(gauss64):
    lgrid = make_lambda_grid(annulus_radii=[0.02], phases=1, t_samples=0)
    data = scan(gauss64, lgrid, with_determinant=False)
    rec = data.records[0]  # |lambda| = 0.02 -> |kappa| ~ 50
    assert any(f.startswith("b-aliased:") for f in rec.flags)
    assert np.isfinite(rec.a)
    assert np.isnan(rec.b.real)


def test_scattering_roundtrip(tmp_path, gauss64):
    lgrid = make_lambda_grid(annulus_radii=[0.5], phases=2, t_samples=2)
    data = scan(gauss64, lgrid)
    path = tmp_path / "scan.json"
    save_scattering(data, path)
    doc = load_scattering(path)
    assert doc["metadata"]["fingerprint"] == data.fingerprint
    assert doc["metadata"]["N"] == 64
    for i, rec in enumerate(data.records):
        # bit-exact roundtrip through repr-free [re, im] JSON pairs
        assert doc["lambda"][i] == complex(rec.lam)
        assert doc["a"][i] == rec.a
        assert doc["b"][i] == rec.b
        assert doc["delta"][i] == rec.delta.delta

    csv_path = tmp_path / "scan.csv"
    save_scattering_csv(data, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("re_lambda,im_lambda")


@given(st.floats(0.05, 20), st.floats(-np.pi, np.pi))
@settings(max_examples=40, deadline=None)
def test_kappa_inversion_antisymmetry(r, th):
    lam = r * np.exp(1j * th)
    assert _kappa(1.0 / np.conj(lam)) == pytest.approx(-_kappa(lam),
                                                       rel=1e-12, abs=1e-12)
