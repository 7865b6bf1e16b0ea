import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvscatter.grids import (DEFAULT_EPS, Grid, LambdaGrid, SpectralPoint,
                             custom_potential, fourier_hat_v, gaussian_hat,
                             load_potential, make_grid, make_lambda_grid,
                             sample_potential, save_potential,
                             translate_potential)


def test_grid_spacing_and_origin_node():
    g = make_grid(8.0, 16)
    assert g.h == 1.0
    assert g.nodes()[0, 0] == -8.0 - 8.0j


def test_grid_fine_spacing():
    assert make_grid(8.0, 256).h == 0.0625


def test_grid_rejects_odd_N():
    with pytest.raises(ValueError, match="N must be even"):
        make_grid(8.0, 255)


def test_grid_rejects_bad_R():
    with pytest.raises(ValueError):
        make_grid(-1.0, 64)
    with pytest.raises(ValueError):
        make_grid(np.inf, 64)


def test_gaussian_zero_amplitude(grid64):
    v = sample_potential(grid64, "gaussian", {"A": 0.0, "sigma": 1.0})
    assert not np.any(v.samples)
    assert v.q == 0.0


def test_gaussian_peak_value(grid64):
    v = sample_potential(grid64, "gaussian", {"A": 1.0, "sigma": 1.0})
    assert v.evaluate(0.0) == 1.0
    i = j = grid64.N // 2  # node at z = 0
    assert v.samples[i, j] == 1.0


def test_exp_bump_closed_form(grid64):
    v = sample_potential(grid64, "exp-bump", {"A": 1.0, "alpha": 2.0})
    assert v.evaluate(3.0) == pytest.approx(np.exp(-2.0 * np.sqrt(10.0)),
                                            rel=1e-14)
    assert v.alpha == 2.0


def test_ring_potential_vanishes_at_origin(grid64):
    v = sample_potential(grid64, "ring", {"A": 1.0, "sigma": 2.0})
    assert v.evaluate(0.0) == 0.0
    assert v.evaluate(1.0) == pytest.approx(np.exp(-0.25))


def test_sample_rejects_bad_params(grid64):
    with pytest.raises(ValueError):
        sample_potential(grid64, "gaussian", {"A": 1.0, "sigma": -1.0})
    with pytest.raises(ValueError):
        sample_potential(grid64, "exp-bump", {"A": 1.0})
    with pytest.raises(ValueError):
        sample_potential(grid64, "nosuch", {"A": 1.0})


@pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf])
def test_potential_rejects_bad_eps(grid64, eps):
    """eps is the decay exponent and the kernel's HS weight exponent; it
    must be positive and finite however the potential is made."""
    with pytest.raises(ValueError, match="eps"):
        sample_potential(grid64, "gaussian", {"A": 0.5, "sigma": 1.0},
                         eps=eps)
    with pytest.raises(ValueError, match="eps"):
        custom_potential(grid64, np.ones((64, 64)), eps=eps)


def test_decay_certificate(grid64):
    v = sample_potential(grid64, "gaussian", {"A": 0.5, "sigma": 1.0})
    z = grid64.nodes()
    assert np.all(np.abs(v.samples)
                  <= v.q * (1 + np.abs(z)) ** (-2 - v.eps) + 1e-15)


def test_custom_potential_rejects_complex(grid64):
    with pytest.raises(ValueError):
        custom_potential(grid64, np.ones((64, 64)) * 1j)


def test_translate_identity(gauss64):
    v0 = translate_potential(gauss64, 0.0)
    np.testing.assert_array_equal(v0.samples, gauss64.samples)


def test_translate_moves_peak(grid64):
    v = sample_potential(grid64, "gaussian", {"A": 0.7, "sigma": 1.0})
    vz = translate_potential(v, 1.0)
    i = int(np.argmin(np.abs(grid64.axis() - 1.0)))
    j = grid64.N // 2
    assert vz.samples[i, j] == pytest.approx(0.7)


def test_translate_guards(gauss64, grid64):
    with pytest.raises(ValueError, match="R/2"):
        translate_potential(gauss64, 5.0)
    vc = custom_potential(grid64, np.zeros((64, 64)))
    with pytest.raises(ValueError, match="custom"):
        translate_potential(vc, 1.0)


def test_fourier_shift_phase(gauss64):
    # translating by zeta multiplies vhat by exp(i/2 (pbar zeta + p zbar))
    zeta = 1.0 + 1.0j
    p = 0.8 - 0.3j
    vz = translate_potential(gauss64, zeta)
    lhs = fourier_hat_v(vz, p)
    rhs = np.exp(0.5j * (np.conj(p) * zeta + p * np.conj(zeta))) \
        * fourier_hat_v(gauss64, p)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_fourier_zero_potential(grid64):
    v = sample_potential(grid64, "gaussian", {"A": 0.0, "sigma": 1.0})
    assert fourier_hat_v(v, 0.3 + 0.1j) == 0


def test_fourier_gaussian_closed_form(gauss64):
    for p in (0.0, 1.0, 0.5 + 0.25j, 2j):
        assert fourier_hat_v(gauss64, p) == pytest.approx(
            gaussian_hat(0.5, 1.0, p), rel=1e-10, abs=1e-14)


def test_fourier_at_zero_is_plain_mean(gauss64):
    h = gauss64.grid.h
    direct = np.sum(gauss64.samples) * h * h / (4 * np.pi**2)
    assert fourier_hat_v(gauss64, 0.0) == pytest.approx(direct, rel=1e-15)


def test_spectral_point_regions():
    assert SpectralPoint(0.5).region == "D+"
    assert SpectralPoint(2.0).region == "D-"
    assert SpectralPoint(np.exp(0.3j)).region == "T"
    with pytest.raises(ValueError):
        SpectralPoint(0.0)


def test_lambda_grid_default_counts():
    lg = make_lambda_grid()
    # 6 radii mirrored = 12 annuli x 16 phases + 32 unit-circle points
    assert len(lg) == 12 * 16 + 32
    assert sum(p.on_T for p in lg) == 32
    lams = lg.lambdas()
    assert np.all(lams != 0)
    assert len(set(lams.tolist())) == len(lams)


def test_lambda_grid_rejects_duplicates():
    with pytest.raises(ValueError):
        LambdaGrid((SpectralPoint(0.5), SpectralPoint(0.5)))


def test_potential_roundtrip(tmp_path, gauss64):
    path = tmp_path / "v.bin"
    save_potential(gauss64, path)
    v2 = load_potential(path)
    np.testing.assert_array_equal(v2.samples, gauss64.samples)
    assert v2.family == gauss64.family
    assert v2.q == gauss64.q
    assert v2.fingerprint() == gauss64.fingerprint()


def test_potential_file_layout(tmp_path, gauss64):
    path = tmp_path / "v.bin"
    save_potential(gauss64, path)
    raw = path.read_bytes()
    header, payload = raw.split(b"\n", 1)
    meta = json.loads(header)
    assert meta["N"] == 64 and meta["R"] == 8.0
    assert len(payload) == 64 * 64 * 8


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.5, 2))
@settings(max_examples=25, deadline=None)
def test_gaussian_hat_is_radial(p1, p2, sigma):
    a = gaussian_hat(1.0, sigma, complex(p1, p2))
    b = gaussian_hat(1.0, sigma, abs(complex(p1, p2)))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-300)
