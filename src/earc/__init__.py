"""Identification of symmetric dynamical systems with equivariant
autoregressive reservoir computers: polynomial Kronecker feature maps over
time-delay windows, symmetry-constrained output couplings from null-space
bases, truncated-SVD least squares, and autoregressive forecasting."""

from .embedding import (CompressionPlan, build_data_matrices, compressed_features,
                        compression_plan, delay_windows, embed_dim)
from .groups import GroupRep, close_group
from .model import EarcModel, Forecast, estimate_lag, load, rollout, save, train
from .solver import (EquivariantBasis, FitReport, assemble, equivariance_residual,
                     equivariant_basis, fit_coefficients)
from .systems import (CompetitionConfig, HamiltonianConfig, builtin_rep,
                      competition_generate, hamiltonian_generate, planted_linear)

__version__ = "0.1.0"

__all__ = [
    "CompressionPlan", "build_data_matrices", "compressed_features",
    "compression_plan", "delay_windows", "embed_dim",
    "GroupRep", "close_group",
    "EarcModel", "Forecast", "estimate_lag", "load", "rollout", "save", "train",
    "EquivariantBasis", "FitReport", "assemble", "equivariance_residual",
    "equivariant_basis", "fit_coefficients",
    "CompetitionConfig", "HamiltonianConfig", "builtin_rep",
    "competition_generate", "hamiltonian_generate", "planted_linear",
    "__version__",
]
