"""Exponentially weighted trajectory functionals: elliptic-in-time
minimization for dissipative, rate-independent, and inertial evolutions,
with executable checks of the structural properties the construction
preserves (comparison, symmetry classes, energetic certificates)."""

from .grids import (ConfigurationError, Grid, Trajectory, build_grid,
                    constant_trajectory, rearrange, rearrangement_order,
                    reflection_permutation)
from .energies import (ConcaveSpec, DissipationSpec, EnergySpec,
                       ReactionSpec, energy1_value_grad, energy2_value_grad,
                       reaction_eval)
from .wed import (ContinuationResult, MinimizeReport, WedProblem,
                  default_eps_schedule, dual_field, eps_continuation,
                  euler_lagrange_residual, fixed_point_solve, minimize_wed,
                  reference_solve, strong_solution_residual, wed_value_grad)
from .qualitative import (InvariantSolveResult, PropertyReport, RMap,
                          check_r1, check_r2, compatibility_issues,
                          invariance_residual, invariant_solve)
from .comparison import (OrderedPairResult, lattice_pair,
                         lattice_value_audit, ordered_minimizers,
                         ordering_margin, submodularity_check,
                         wed_potential_value)
from .rateind import (EnergeticReport, OrderedRIPair, RIProblem,
                      RITrajectory, energetic_residuals, minimize_wed_ri,
                      ordered_ri_minimizers, ri_continuation,
                      sign_condition, wed_ri_value)
from .wide import (LagrangianProblem, WideWaveProblem,
                   equivariance_residual, hamiltonian, hamiltonian_drift,
                   minimize_wide, wide_continuation,
                   wide_invariance_residual, wide_trajectory,
                   wide_value_grad)
from .runner import Scenario, ScenarioError, run, verify

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "Grid", "Trajectory", "build_grid",
    "constant_trajectory", "rearrange", "rearrangement_order",
    "reflection_permutation",
    "ConcaveSpec", "DissipationSpec", "EnergySpec", "ReactionSpec",
    "energy1_value_grad", "energy2_value_grad", "reaction_eval",
    "ContinuationResult", "MinimizeReport", "WedProblem",
    "default_eps_schedule", "dual_field", "eps_continuation",
    "euler_lagrange_residual", "fixed_point_solve", "minimize_wed",
    "reference_solve", "strong_solution_residual", "wed_value_grad",
    "InvariantSolveResult", "PropertyReport", "RMap",
    "check_r1", "check_r2", "compatibility_issues", "invariance_residual",
    "invariant_solve",
    "OrderedPairResult", "lattice_pair", "lattice_value_audit",
    "ordered_minimizers", "ordering_margin", "submodularity_check",
    "wed_potential_value",
    "EnergeticReport", "OrderedRIPair", "RIProblem", "RITrajectory",
    "energetic_residuals", "minimize_wed_ri", "ordered_ri_minimizers",
    "ri_continuation", "sign_condition", "wed_ri_value",
    "LagrangianProblem", "WideWaveProblem",
    "equivariance_residual", "hamiltonian", "hamiltonian_drift",
    "minimize_wide", "wide_continuation", "wide_invariance_residual",
    "wide_trajectory", "wide_value_grad",
    "Scenario", "ScenarioError", "run", "verify",
]
