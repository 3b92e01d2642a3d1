"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
numerical failures (blow-up, CFL violation, near-singular deformation,
constraint collapse) exit 3, failed acceptance checks exit 1.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all solver errors."""


class NumericalError(SimulationError):
    """A run failed for numerical reasons (maps to exit code 3). A run it ends
    reports its status: "numerical_guard" unless a subclass sets another."""

    status = "numerical_guard"


class NearSingularError(NumericalError):
    """Pointwise determinant of the deformation dropped below the guard."""


class ConstraintError(NumericalError):
    """Magnetization length collapsed below the renormalization guard."""


class BlowUpError(NumericalError):
    """NaN/Inf detected while stepping; carries the failure time."""

    status = "blowup"

    def __init__(self, t: float, message: str = "") -> None:
        self.t = t
        super().__init__(message or f"non-finite field values at t = {t:.6g}")


class CflError(NumericalError):
    """Advective CFL guard violated; carries the failure time."""

    status = "cfl_violation"

    def __init__(self, t: float, cfl: float, guard: float) -> None:
        self.t = t
        self.cfl = cfl
        super().__init__(f"CFL number {cfl:.3g} exceeds guard {guard:.3g} at t = {t:.6g}")


class ConfigError(SimulationError):
    """Invalid or unknown configuration input (maps to exit code 2)."""


class SnapshotError(SimulationError):
    """Malformed snapshot file (version/shape/payload problems)."""
