"""Bifurcation analysis of periodic solutions for a ring of coupled
discrete nonlinear Schrodinger oscillators.

The library computes the rotating-wave equilibrium of the ring, the
closed-form spectral theory of its symmetry-adapted 2x2 blocks, the full
classification of forced bifurcation points for cubic, saturable and custom
potentials, and numerically verifies predicted branches with a Fourier
collocation Newton solver and pseudo-arclength continuation.
"""

from .blocks import (BlockCoefficients, BrokenReflection, CriticalFrequencies,
                     SearchRangeExhausted, SingularBlock, SpectralSummary,
                     StabilityVerdict, block_B, block_m, coefficients, critical_frequencies,
                     degenerate_amplitudes, det_trace, eta, full_spectrum_oracle,
                     kernel_vector, linear_stability, morse_index, mu_h_prime,
                     sigma, spectral_summary, spectrum_max_real)
from .classify import (ADMISSIBILITY_NOTE, BifurcationPoint, DegenerateAmplitude,
                       RegimeEntry, RegimeReport, enumerate_bifurcations,
                       saturable_regimes, schrodinger_regimes, stability_interval)
from .model import (J2, PotentialModel, RingSystem, block_symplectic, complex_view,
                    cubic_potential, custom_potential, gradient_V, hessian_V,
                    potential_V, real_view, saturable_potential, standing_wave,
                    vector_field)
from .orbits import (BranchPoint, ContinuationBranch, FourierOrbit, NoConvergence,
                     SingularJacobian, continue_branch, extrapolate_nu_to_zero,
                     integrate, linearized_residual, newton_orbit,
                     orbit_residual_norm, orthogonality_check, residual)
from .symmetry import (BlockDecomposition, ChangeOfVariables, IsotropyLabel,
                       SymmetryResidual, assemble_P, block_extract, group_action,
                       symmetry_residual, t_k_apply, t_k_matrix,
                       traveling_wave_residual)

__version__ = "0.1.0"
