"""State containers for both formulations and the exact algebraic
conversions F <-> G <-> psi, plus pointwise geometric residuals.

Formulation A evolves (v, F, M): velocity, deformation gradient, and
magnetization. Formulation B evolves (v, psi, M) where the rows of
G = F^{-1} - I are the gradients of the potential components psi^j,
i.e. G^{jk} = d_k psi^j. Magnetization always carries 3 components valued
near the unit sphere, also in spatial dimension 2 (the standard
micromagnetic convention: planar sample, three-dimensional magnetization),
because the precession term M x Delta(M) needs three components.

The per-formulation layout is decided here and nowhere else: StateA and
StateB share one base that names the formulation, its fields in the order
(v, F|psi, M), their containers and component shapes, and builds a state
from value arrays (STATES maps "A"/"B" to the class). The stepper, the
snapshot format, the diagnostics and the CLI iterate over that layout. A
state made by a time step also holds the fields' hats it was transformed
back from (hats), and a state read as initial data from a snapshot the
hats its check made; every reader of its hats takes them instead of
transforming it again.

Pressure is never stored: every momentum tendency is composed with the
Leray projection and the pressure is recoverable on demand by a Poisson
solve. The potential psi is gauged to zero spatial mean per component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConstraintError, NearSingularError
from .spectral import (
    MatrixField,
    ScalarField,
    TorusGrid,
    VectorField,
    jacobian_values,
)

DET_GUARD = 0.1  # pointwise |det| threshold for near-singular deformation
RENORM_GUARD = 0.5  # pointwise |M| threshold below which renormalization fails


@dataclass(frozen=True, eq=False)
class _State:
    """The layout both formulations share: three fields ordered (v, F|psi, M),
    with the formulation tag, field names and containers set by each subclass."""

    formulation: ClassVar[str]
    names: ClassVar[tuple[str, str, str]]
    kinds: ClassVar[tuple[type, type, type]]

    t: float
    # the fields' transforms in layout order, when the state was made from them
    # (None: none held); not part of snapshots, and kept by replace(), so a
    # replace() that changes a field must pass hats=None
    hats: tuple[np.ndarray, ...] | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self) -> None:
        grid = self.grid
        if any(f.grid != grid for f in self.fields):
            raise ValueError("all fields must share one grid")
        for name, f, shape in zip(self.names, self.fields, self.component_shapes(grid.dim)):
            if f.values.shape[: len(shape)] != shape:
                raise ValueError(f"{name} must have component shape {shape}")

    @property
    def fields(self) -> tuple[VectorField, VectorField | MatrixField, VectorField]:
        return tuple(getattr(self, name) for name in self.names)

    @property
    def grid(self) -> TorusGrid:
        return self.fields[0].grid

    @classmethod
    def component_shapes(cls, dim: int) -> tuple[tuple[int, ...], ...]:
        """Leading axes of each field's values: (d,) for v and psi, (d, d)
        for F and (3,) for M, which has three components in every dimension."""
        return tuple(
            (3,) if name == "M" else (dim, dim) if kind is MatrixField else (dim,)
            for name, kind in zip(cls.names, cls.kinds)
        )

    def field_hats(self) -> tuple[np.ndarray, ...]:
        """The fields' hats in layout order: the held ones, else one transform each."""
        if self.hats is not None:
            return self.hats
        return tuple(self.grid.fft(f.values) for f in self.fields)

    @classmethod
    def from_values(cls, t: float, grid: TorusGrid, arrays, hats=None) -> "_State":
        """The state at time t with the given value arrays, in layout order, and
        the hats they were made from, if any."""
        return cls(t, *(kind(grid, values) for kind, values in zip(cls.kinds, arrays)),
                   hats=hats)


@dataclass(frozen=True, eq=False)
class StateA(_State):
    """Primitive-system state (v, F, M) at time t."""

    formulation: ClassVar[str] = "A"
    names: ClassVar[tuple[str, str, str]] = ("v", "F", "M")
    kinds: ClassVar[tuple[type, type, type]] = (VectorField, MatrixField, VectorField)

    v: VectorField
    F: MatrixField
    M: VectorField


@dataclass(frozen=True, eq=False)
class StateB(_State):
    """Reformulated-system state (v, psi, M) at time t; G = grad(psi) rows."""

    formulation: ClassVar[str] = "B"
    names: ClassVar[tuple[str, str, str]] = ("v", "psi", "M")
    kinds: ClassVar[tuple[type, type, type]] = (VectorField, VectorField, VectorField)

    v: VectorField
    psi: VectorField
    M: VectorField


STATES: dict[str, type[_State]] = {"A": StateA, "B": StateB}


@dataclass(frozen=True)
class HExt:
    """External field specification: zero, a uniform 3-vector, or one
    band-limited cosine mode a*cos(k.x - omega*t) along one component."""

    kind: str = "zero"  # "zero" | "uniform" | "single_mode"
    vector: tuple[float, float, float] = (0.0, 0.0, 0.0)
    amplitude: float = 0.0
    wavevector: tuple[int, ...] = (1, 0)
    component: int = 2
    omega: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "uniform", "single_mode"):
            raise ValueError(f"unknown external field kind {self.kind!r}")
        if self.kind == "single_mode" and not 0 <= self.component <= 2:
            raise ValueError("single_mode component must be 0, 1, or 2")

    @property
    def is_zero(self) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "uniform":
            return all(c == 0.0 for c in self.vector)
        return self.amplitude == 0.0

    def evaluate(self, grid: TorusGrid, t: float) -> VectorField | None:
        """Sample H_ext(x, t) on the grid; None means identically zero."""
        if self.is_zero:
            return None
        values = np.zeros((3,) + grid.shape)
        if self.kind == "uniform":
            for c in range(3):
                values[c] = self.vector[c]
        else:
            if len(self.wavevector) != grid.dim:
                raise ValueError("wavevector length must equal grid dim")
            phase = -self.omega * t
            for i, ki in enumerate(self.wavevector):
                phase = phase + ki * grid.x[i]
            values[self.component] = self.amplitude * np.cos(phase)
        return VectorField(grid, values)


@dataclass(frozen=True)
class PhysParams:
    """Physical coefficients: viscosity nu > 0, deformation regularization
    kappa >= 0 (default 0), and the external field specification."""

    nu: float = 1.0
    kappa: float = 0.0
    h_ext: HExt = field(default_factory=HExt)

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")


def check_params(formulation: str, dim: int, params: PhysParams) -> None:
    """Raise ValueError for parameters a state of this formulation and
    dimension cannot honour: formulation B has no kappa and no external field
    term, and a single_mode wavevector needs one entry per grid axis."""
    h_ext = params.h_ext
    if h_ext.kind == "single_mode" and len(h_ext.wavevector) != dim:
        raise ValueError(
            f"single_mode h_ext wavevector needs {dim} entries, got {list(h_ext.wavevector)}"
        )
    if formulation == "B" and not h_ext.is_zero:
        raise ValueError("formulation B requires a vanishing external field")
    if formulation == "B" and params.kappa != 0.0:
        raise ValueError(f"formulation B requires kappa = 0, got {params.kappa}")


# --------------------------------------------------------------------------
# Pointwise matrix algebra
# --------------------------------------------------------------------------


def det_values(grid: TorusGrid, mat: np.ndarray) -> np.ndarray:
    """Pointwise determinant of a (d, d) + shape stack."""
    if grid.dim == 2:
        return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    return (
        mat[0, 0] * (mat[1, 1] * mat[2, 2] - mat[1, 2] * mat[2, 1])
        - mat[0, 1] * (mat[1, 0] * mat[2, 2] - mat[1, 2] * mat[2, 0])
        + mat[0, 2] * (mat[1, 0] * mat[2, 1] - mat[1, 1] * mat[2, 0])
    )


def inverse_values(grid: TorusGrid, mat: np.ndarray, context: str,
                   det: np.ndarray | None = None) -> np.ndarray:
    """Pointwise closed-form inverse; raises if |det| < DET_GUARD anywhere.
    det, if given, is det_values(grid, mat), made by a caller that needs it too.
    The cofactors are divided by det in place, so the inverse is the one
    (d, d) + shape array it allocates."""
    det = det_values(grid, mat) if det is None else det
    min_det = float(np.min(np.abs(det)))
    if min_det < DET_GUARD:
        raise NearSingularError(
            f"{context}: min |det| = {min_det:.6g} < {DET_GUARD} (near-singular deformation)"
        )
    inv = np.empty_like(mat)
    if grid.dim == 2:
        inv[0, 0] = mat[1, 1]
        inv[0, 1] = -mat[0, 1]
        inv[1, 0] = -mat[1, 0]
        inv[1, 1] = mat[0, 0]
    else:
        inv[0, 0] = mat[1, 1] * mat[2, 2] - mat[1, 2] * mat[2, 1]
        inv[0, 1] = mat[0, 2] * mat[2, 1] - mat[0, 1] * mat[2, 2]
        inv[0, 2] = mat[0, 1] * mat[1, 2] - mat[0, 2] * mat[1, 1]
        inv[1, 0] = mat[1, 2] * mat[2, 0] - mat[1, 0] * mat[2, 2]
        inv[1, 1] = mat[0, 0] * mat[2, 2] - mat[0, 2] * mat[2, 0]
        inv[1, 2] = mat[0, 2] * mat[1, 0] - mat[0, 0] * mat[1, 2]
        inv[2, 0] = mat[1, 0] * mat[2, 1] - mat[1, 1] * mat[2, 0]
        inv[2, 1] = mat[0, 1] * mat[2, 0] - mat[0, 0] * mat[2, 1]
        inv[2, 2] = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    inv /= det
    return inv


def identity_plus(grid: TorusGrid, g_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I + G on raw (d, d) + shape values of G, and its pointwise determinant."""
    mat = g_vals.copy()
    for i in range(grid.dim):
        mat[i, i] += 1.0
    return mat, det_values(grid, mat)


def identity_values(grid: TorusGrid) -> np.ndarray:
    mat = np.zeros((grid.dim, grid.dim) + grid.shape)
    for i in range(grid.dim):
        mat[i, i] = 1.0
    return mat


def identity_matrix_field(grid: TorusGrid) -> MatrixField:
    return MatrixField(grid, identity_values(grid))


# --------------------------------------------------------------------------
# Conversions and residuals
# --------------------------------------------------------------------------


def F_to_G(F: MatrixField, det: np.ndarray | None = None) -> MatrixField:
    """G = F^{-1} - I by pointwise closed-form inversion; det as in inverse_values.
    I is subtracted from the inverse's diagonal in place, with no identity array."""
    grid = F.grid
    G = inverse_values(grid, F.values, "F_to_G", det)
    for i in range(grid.dim):
        G[i, i] -= 1.0
    return MatrixField(grid, G)


def G_to_F(G: MatrixField) -> MatrixField:
    """F = (I + G)^{-1}, the algebraic inverse of F_to_G."""
    grid = G.grid
    mat, det = identity_plus(grid, G.values)
    return MatrixField(grid, inverse_values(grid, mat, "G_to_F", det))


def det_field(F: MatrixField) -> ScalarField:
    """Pointwise determinant of the deformation gradient."""
    return ScalarField(F.grid, det_values(F.grid, F.values))


def curl_residual(G: MatrixField) -> float:
    """max over the grid and all (i, j, k) of |d_i G^{jk} - d_k G^{ji}|.

    Zero exactly when every row of G is a gradient (G = grad psi rows). Only
    the d^2 (d - 1) derivatives with i != k enter, so only those are
    transformed back: 4 inverse transforms in 2D and 18 in 3D, not d^3. They
    are made one pair (d_i G^{jk}, d_k G^{ji}) at a time, in one array that
    holds their hats: made at once, all 18 with their hats and the
    transform's own copy set a 3D run's resident peak, inside a record, and
    a row's 6 still set an A record's traced peak.
    """
    grid = G.grid
    hat = grid.fft(G.values)
    der_hat = np.empty((2,) + grid.hat_shape, dtype=complex)
    res = 0.0
    for j in range(grid.dim):
        for k in range(grid.dim):
            for i in range(k):
                np.multiply(hat[j, k], grid.ik[i], out=der_hat[0])
                np.multiply(hat[j, i], grid.ik[k], out=der_hat[1])
                a, b = grid.ifft(der_hat)
                res = max(res, float(np.max(np.abs(a - b))))
    return res


def sphere_residual(M: VectorField) -> float:
    """max over the grid of | |M(x)| - 1 |."""
    norms = np.sqrt(np.sum(M.values**2, axis=0))
    return float(np.max(np.abs(norms - 1.0)))


def renormalize_M(M: VectorField) -> VectorField:
    """Divide M pointwise by its length; fails if |M| < 0.5 anywhere."""
    norms = np.sqrt(np.sum(M.values**2, axis=0))
    min_norm = float(np.min(norms))
    if min_norm < RENORM_GUARD:
        raise ConstraintError(
            f"renormalize_M: min |M| = {min_norm:.6g} < {RENORM_GUARD} (constraint blow-up)"
        )
    return VectorField(M.grid, M.values / norms)


def grad_potential(psi: VectorField) -> MatrixField:
    """G with rows grad(psi^j): G^{jk} = d_k psi^j, derivatives spectral."""
    return MatrixField(psi.grid, jacobian_values(psi.grid, psi.values))


def state_B_to_A(state: StateB) -> StateA:
    """Convert (v, psi, M) to (v, F, M) with F = (I + grad psi)^{-1}."""
    F = G_to_F(grad_potential(state.psi))
    return StateA(t=state.t, v=state.v, F=F, M=state.M)
