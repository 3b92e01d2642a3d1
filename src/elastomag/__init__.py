"""Pseudospectral simulator for incompressible magnetoelasticity.

Couples an incompressible velocity, an elastic deformation gradient, and a
unit-length magnetization on the periodic torus [0, 2*pi)^d, d = 2 or 3.
Two equivalent formulations are integrated: the primitive (v, F, M) system
and the reformulated (v, psi, M) system whose elastic state is the
potential of G = F^{-1} - I.

Subpackage layout:
    spectral     grid, field containers, array-level FFT operators
    fields       state containers, parameters, geometric residuals
    dynamics     right-hand sides of both formulations
    energetics   Sobolev-norm functionals and diagnostic records
    timestepper  two-stage IMEX integrator and the run loop
    stokes       generalized Stokes solver and the w = nu v - psi diagnostic
    schemes      mollified magnetization scheme and Picard iteration
    harness      config, initial data, scenarios, snapshots, CLI
"""

from . import dynamics, energetics, fields, harness, schemes, spectral, stokes, timestepper
from .energetics import (
    CSV_HEADER,
    DiagnosticRecord,
    basic_energy,
    constraint_bundle,
    delta_default,
    diagnostic_record,
    multiindex_count,
    sobolev_norm_sq,
)
from .errors import (
    BlowUpError,
    CflError,
    ConfigError,
    ConstraintError,
    NearSingularError,
    NumericalError,
    SimulationError,
    SnapshotError,
)
from .fields import HExt, PhysParams, StateA, StateB, state_B_to_A
from .harness import (
    SimulationConfig,
    generate_initial_data,
    load_snapshot,
    run_scenario,
    run_simulation,
    write_snapshot,
)
from .schemes import (
    mollifier_convergence_study,
    picard_iterate,
    solve_llg_given_v,
)
from .spectral import MatrixField, ScalarField, TorusGrid, VectorField
from .stokes import StokesSolution, solve_generalized_stokes, w_diagnostic
from .timestepper import IntegratorConfig, RunResult, run, step_A, step_B

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CSV_HEADER",
    "CflError",
    "ConfigError",
    "ConstraintError",
    "DiagnosticRecord",
    "HExt",
    "IntegratorConfig",
    "MatrixField",
    "NearSingularError",
    "NumericalError",
    "PhysParams",
    "RunResult",
    "ScalarField",
    "SimulationConfig",
    "SimulationError",
    "SnapshotError",
    "StateA",
    "StateB",
    "StokesSolution",
    "TorusGrid",
    "VectorField",
    "basic_energy",
    "constraint_bundle",
    "delta_default",
    "diagnostic_record",
    "dynamics",
    "energetics",
    "fields",
    "generate_initial_data",
    "harness",
    "load_snapshot",
    "mollifier_convergence_study",
    "multiindex_count",
    "picard_iterate",
    "run",
    "run_scenario",
    "run_simulation",
    "schemes",
    "sobolev_norm_sq",
    "solve_generalized_stokes",
    "solve_llg_given_v",
    "spectral",
    "state_B_to_A",
    "step_A",
    "step_B",
    "stokes",
    "timestepper",
    "w_diagnostic",
    "write_snapshot",
]
