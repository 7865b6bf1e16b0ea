"""Computational grids, decaying test potentials and their Fourier transform.

The z-plane is truncated to the square [-R, R)^2 with N nodes per axis,
spacing h = 2R/N.  All potentials are real valued and decay at least like
q*(1+|z|)^(-2-eps); the exponential families additionally satisfy
|v(z)| <= C*exp(-alpha*|z|).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_EPS = 1.0

FAMILIES = ("gaussian", "exp-bump", "ring", "custom")

# a spectral point is on the unit circle T when ||lambda| - 1| < T_TOL
T_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform square grid on [-R, R)^2 with N nodes per axis."""

    R: float
    N: int

    @property
    def h(self) -> float:
        return 2.0 * self.R / self.N

    def axis(self) -> np.ndarray:
        """1D node coordinates -R + j*h, j = 0..N-1."""
        return -self.R + self.h * np.arange(self.N)

    def nodes(self) -> np.ndarray:
        """Complex node coordinates z_{jk} = x_j + i*y_k, shape (N, N).

        First index is the real part, second the imaginary part.
        """
        x = self.axis()
        return x[:, None] + 1j * x[None, :]

    def __post_init__(self):
        if not (self.R > 0 and np.isfinite(self.R)):
            raise ValueError("R must be positive and finite")
        if self.N % 2 != 0:
            raise ValueError("N must be even")
        if self.N < 16:
            raise ValueError("N must be >= 16")


def make_grid(R: float, N: int) -> Grid:
    """Build a grid with exact spacing 2R/N; rejects odd N and R <= 0."""
    return Grid(float(R), int(N))


def _gaussian(z, A, sigma):
    return A * np.exp(-np.abs(z) ** 2 / sigma**2)


def _exp_bump(z, A, alpha):
    return A * np.exp(-alpha * np.sqrt(np.abs(z) ** 2 + 1.0))


def _ring(z, A, sigma):
    r2 = np.abs(z) ** 2
    return A * r2 * np.exp(-r2 / sigma**2)


@dataclass(frozen=True)
class Potential:
    """Real decaying potential sampled on a grid.

    q and eps form the algebraic decay certificate
    |v(z)| <= q*(1+|z|)^(-2-eps) at every node; eps is also the weight
    exponent of the Fredholm kernel's Hilbert-Schmidt norm.  alpha (when
    set) is the exponential decay rate of the family.
    """

    grid: Grid
    samples: np.ndarray
    family: str
    params: dict = field(default_factory=dict)
    q: float = 0.0
    eps: float = DEFAULT_EPS
    alpha: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.samples.shape != (self.grid.N, self.grid.N):
            raise ValueError("samples shape does not match grid")
        if np.iscomplexobj(self.samples):
            raise ValueError("potential samples must be real")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be positive and finite")

    def evaluate(self, z):
        """Evaluate the analytic form at arbitrary points.

        Raises for custom potentials, which carry samples only.
        """
        fn = _FAMILY_FUNCS.get(self.family)
        if fn is None:
            raise ValueError("custom potentials have no analytic form")
        return fn(np.asarray(z), **self.params)

    def fingerprint(self) -> str:
        import hashlib

        hsh = hashlib.sha256()
        hsh.update(np.ascontiguousarray(self.samples).tobytes())
        hsh.update(f"{self.grid.R}:{self.grid.N}".encode())
        return hsh.hexdigest()[:16]


_FAMILY_FUNCS = {
    "gaussian": _gaussian,
    "exp-bump": _exp_bump,
    "ring": _ring,
}


def _decay_q(grid: Grid, samples: np.ndarray, eps: float) -> float:
    z = grid.nodes()
    return float(np.max(np.abs(samples) * (1.0 + np.abs(z)) ** (2.0 + eps)))


def sample_potential(grid: Grid, family: str, params: dict,
                     eps: float = DEFAULT_EPS) -> Potential:
    """Sample one of the analytic potential families on a grid.

    gaussian: A*exp(-|z|^2/sigma^2); exp-bump: A*exp(-alpha*sqrt(|z|^2+1));
    ring: A*|z|^2*exp(-|z|^2/sigma^2).
    """
    if family not in _FAMILY_FUNCS:
        raise ValueError(f"unknown family {family!r}")
    params = dict(params)
    A = params.get("A")
    if A is None or not np.isfinite(A):
        raise ValueError("amplitude A must be finite")
    if family in ("gaussian", "ring"):
        if params.get("sigma", 0.0) <= 0:
            raise ValueError("sigma must be positive")
        alpha = None
    else:
        if params.get("alpha", 0.0) <= 0:
            raise ValueError("alpha must be positive")
        alpha = float(params["alpha"])
    samples = _FAMILY_FUNCS[family](grid.nodes(), **params)
    q = _decay_q(grid, samples, eps)
    return Potential(grid, samples, family, params, q=q, eps=eps, alpha=alpha)


def custom_potential(grid: Grid, samples: np.ndarray,
                     eps: float = DEFAULT_EPS) -> Potential:
    """Wrap externally produced real samples; no analytic form attached."""
    samples = np.asarray(samples)
    if np.iscomplexobj(samples):
        raise ValueError("potential samples must be real")
    samples = samples.astype(float)
    q = _decay_q(grid, samples, eps)
    return Potential(grid, samples, "custom", {}, q=q, eps=eps)


def translate_potential(v: Potential, zeta: complex) -> Potential:
    """Re-evaluate the analytic family at z - zeta.

    Closed-form re-evaluation only: custom sampled potentials are rejected
    (translating them would need interpolation).  |zeta| is capped at R/2 so
    the translate stays resolved on the grid.
    """
    zeta = complex(zeta)
    if not np.isfinite(zeta):
        raise ValueError("zeta must be finite")
    if abs(zeta) > v.grid.R / 2:
        raise ValueError("|zeta| must not exceed R/2")
    if v.family == "custom":
        raise ValueError("cannot translate a custom potential without an "
                         "analytic form")
    samples = v.evaluate(v.grid.nodes() - zeta)
    q = _decay_q(v.grid, samples, v.eps)
    return Potential(v.grid, samples, v.family, dict(v.params),
                     q=q, eps=v.eps, alpha=v.alpha)


def fourier_hat_v(v: Potential, p: complex) -> complex:
    """Fourier transform (2pi)^-2 * integral exp(i/2 (pbar z + p zbar)) v.

    The phase equals exp(i*(p1*x1 + p2*x2)) for p = p1 + i*p2, so this is a
    plain 2D Fourier integral evaluated by the trapezoid rule (spectrally
    accurate for the smooth rapidly decaying families).
    """
    p = complex(p)
    if not np.isfinite(p):
        raise ValueError("p must be finite")
    z = v.grid.nodes()
    phase = np.exp(0.5j * (np.conj(p) * z + p * np.conj(z)))
    h = v.grid.h
    return complex(np.sum(phase * v.samples) * h * h / (4.0 * np.pi**2))


def gaussian_hat(A: float, sigma: float, p: complex) -> complex:
    """Closed form of fourier_hat_v for the gaussian family."""
    return A * sigma**2 / (4.0 * np.pi) * np.exp(-sigma**2 * abs(p) ** 2 / 4)


@dataclass(frozen=True)
class SpectralPoint:
    """Nonzero spectral parameter with unit-circle proximity flags."""

    lam: complex

    def __post_init__(self):
        if self.lam == 0 or not np.isfinite(self.lam):
            raise ValueError("lambda must be nonzero and finite")

    @property
    def on_T(self) -> bool:
        return abs(abs(self.lam) - 1.0) < T_TOL

    @property
    def region(self) -> str:
        if self.on_T:
            return "T"
        return "D+" if abs(self.lam) < 1.0 else "D-"


@dataclass(frozen=True)
class LambdaGrid:
    """Ordered, deduplicated list of spectral points plus its descriptor."""

    points: tuple
    descriptor: dict = field(default_factory=dict)

    def __post_init__(self):
        lams = [p.lam for p in self.points]
        if any(l == 0 for l in lams):
            raise ValueError("lambda grid must not contain 0")
        if len(set(lams)) != len(lams):
            raise ValueError("lambda grid contains duplicates")

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])


def make_lambda_grid(annulus_radii=None, phases: int = 16,
                     t_samples: int = 32) -> LambdaGrid:
    """Annuli-plus-unit-circle sampling of the spectral plane.

    Defaults: 6 logarithmic radii in [0.05, 0.9], mirrored outside via
    r -> 1/r, `phases` angles per annulus and `t_samples` points with
    |lambda| = 1 exactly.
    """
    if annulus_radii is None:
        annulus_radii = list(np.geomspace(0.05, 0.9, 6))
    radii = list(annulus_radii) + [1.0 / r for r in annulus_radii]
    pts = []
    seen = set()
    for r in radii:
        for k in range(phases):
            lam = r * np.exp(2j * np.pi * (k + 0.5) / phases)
            lam = complex(lam)
            if lam not in seen:
                seen.add(lam)
                pts.append(SpectralPoint(lam))
    for k in range(t_samples):
        lam = complex(np.exp(2j * np.pi * k / t_samples))
        lam = lam / abs(lam)  # |lam| = 1 exactly up to fp rounding
        if lam not in seen:
            seen.add(lam)
            pts.append(SpectralPoint(lam))
    descriptor = {"annulus_radii": [float(r) for r in annulus_radii],
                  "phases": phases, "t_samples": t_samples}
    return LambdaGrid(tuple(pts), descriptor)


def save_potential(v: Potential, path) -> None:
    """JSON header line + N*N little-endian float64 payload, row major."""
    header = {"family": v.family, "params": v.params, "R": v.grid.R,
              "N": v.grid.N, "q": v.q, "eps": v.eps}
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        f.write(np.ascontiguousarray(v.samples, dtype="<f8").tobytes())


def load_potential(path) -> Potential:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        payload = f.read()
    grid = make_grid(header["R"], header["N"])
    samples = np.frombuffer(payload, dtype="<f8").reshape(grid.N, grid.N)
    return Potential(grid, samples.copy(), header["family"], header["params"],
                     q=header["q"], eps=header["eps"],
                     alpha=header["params"].get("alpha"))
