"""Direct scattering for the 2D Schrodinger equation at fixed energy E = -1.

Pipeline: sample a decaying potential (grids) -> tabulate the
lambda-parameterized fundamental solution (greens) -> solve the integral
equation for mu and evaluate the modified Fredholm determinant (lippmann)
-> form the scattering data a, b (scattering) -> measure every structural
identity as a residual (verify).  `cli` wires it all to JSON configs.
"""

from .grids import (Grid, LambdaGrid, Potential, SpectralPoint, make_grid,
                    make_lambda_grid, sample_potential)
from .greens import GreensTable, build_greens_table, greens_points
from .lippmann import (DeterminantSample, KernelMatrix, MuField,
                       build_kernel, detect_exceptional,
                       modified_fredholm_det, solve_mu)
from .scattering import (ScatteringData, born_b, compute_a, compute_b,
                         r_coefficient, scan, solve_point)
from .verify import VerificationReport, assemble_report

__version__ = "0.1.0"

__all__ = [
    "Grid", "LambdaGrid", "Potential", "SpectralPoint", "make_grid",
    "make_lambda_grid", "sample_potential", "GreensTable",
    "build_greens_table", "greens_points", "DeterminantSample",
    "KernelMatrix", "MuField", "build_kernel", "detect_exceptional",
    "modified_fredholm_det", "solve_mu", "ScatteringData", "born_b",
    "compute_a", "compute_b", "r_coefficient", "scan", "solve_point",
    "VerificationReport", "assemble_report", "__version__",
]
