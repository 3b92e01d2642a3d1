"""Sobolev norms by multi-index sum and every monitored functional.

The H^s norm follows the multi-index definition

    ||f||^2_{H^s} = sum_{|m| <= s} ||d^m f||^2_{L^2},

computed in one pass over modes with the multiplier
sum_{|m| <= s} prod_i k_i^{2 m_i} (not the equivalent (1+|k|^2)^s weight),
which makes the multi-index count K_s and the delta formula literal.

Monitored functionals:

    basic energy  (1/2)(||v||^2 + ||F||^2 + ||grad M||^2)_{L^2}
    E_s = ||v||^2_{H^s} + ||F||^2_{H^s} + ||grad M||^2_{H^s}
    D_s = nu ||grad v||^2_{H^s} + ||Delta M||^2_{H^s}
    E_glob = delta^2 ||v||^2_{H^s} + ||grad M||^2_{H^s} + delta ||grad psi||^2_{H^s}
             + ||dt v||^2_{H^{s-2}} + ||grad dt psi||^2_{H^{s-2}}
    D_glob = (1/2) delta^2 nu ||grad v||^2_{H^s} + delta^2 nu ||grad dt psi||^2_{H^{s-2}}
             + 2 ||Delta M||^2_{H^s} + (delta/(2 nu)) ||grad psi||^2_{H^s}
             + nu ||grad dt v||^2_{H^{s-2}}

The time derivatives entering the global functionals are the instantaneous
right-hand-side evaluations (the tendency hats of a dynamics.Rhs), never
finite differences of the trajectory. In a run they are the first-stage
evaluation of the next step: timestepper.run calls rhs_A/rhs_B once at a
recorded state, the record reads its hats, and the step reuses them.

Every norm is one weighted mode sum over |fhat|^2 (_hat_norm_sq); _norms
sums over named hats, forming each |fhat|^2 and each distinct norm once, on
first use. A state's hats and jacobians come from one view, _StateHats,
which starts from the hats given to it or else the ones the state holds
(fields._State.hats, set by every march), transforms any other field on
first use, and makes B's hat of F = (I + grad psi)^{-1} from the jacobian
of psi; _residuals reads the same view. diagnostic_record seeds the view
with the state hats of one dynamics.Rhs and, in B, with its geometry: the
jacobian of psi, F's values and det(I + grad psi) that the B kernel made,
so a B record makes no jacobian and no inverse of its own. constraint_bundle,
basic_energy and the Picard nodes take the state's own hats and make the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from functools import cache, cached_property
from itertools import product
from typing import Callable, Mapping, Sequence

import numpy as np

from .dynamics import Geometry, Rhs
from .fields import (
    F_to_G,
    PhysParams,
    StateA,
    StateB,
    curl_residual,
    det_values,
    identity_plus,
    inverse_values,
    sphere_residual,
)
from .spectral import (
    Field, MatrixField, ScalarField, TorusGrid, divergence_from_hat, jacobian_from_hat
)



def multiindices(d: int, s: int) -> list[tuple[int, ...]]:
    """All m in N^d with |m| <= s, in lexicographic order."""
    return [m for m in product(range(s + 1), repeat=d) if sum(m) <= s]


def multiindex_count(d: int, s: int) -> int:
    """K_s: the number of multi-indices m in N^d with |m| <= s."""
    if d not in (2, 3):
        raise ValueError(f"d must be 2 or 3, got {d}")
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    return math.comb(s + d, d)


def delta_default(nu: float, c0_hat: float, k_s: int) -> float:
    """min(1/4, nu^2 / (16 c0_hat^2 K_s^2))."""
    if nu <= 0 or c0_hat <= 0 or k_s <= 0:
        raise ValueError("delta_default needs positive arguments")
    return min(0.25, nu**2 / (16.0 * c0_hat**2 * k_s**2))


@cache
def sobolev_weight(grid: TorusGrid, s: int) -> np.ndarray:
    """Mode multiplier sum_{|m| <= s} prod_i k_i^{2 m_i}, cached per (grid, s)."""
    if s < 0:
        raise ValueError(f"Sobolev order must be >= 0, got {s}")
    weight = np.zeros(grid.hat_shape)
    for m in multiindices(grid.dim, s):
        term = np.ones(grid.hat_shape)
        for i, mi in enumerate(m):
            if mi > 0:
                term = term * grid.k[i] ** (2 * mi)
        weight += term
    return weight


@cache
def _mode_weight(grid: TorusGrid, s: int, power: int) -> np.ndarray:
    """sobolev_weight(grid, s) * k_sq**power * mode_weight; k_sq**0 == 1 and
    k_sq**1 == k_sq exactly, so each power gives the bits of the unshared weight."""
    return sobolev_weight(grid, s) * grid.k_sq**power * grid.mode_weight


def _hat_sq(hat: np.ndarray) -> np.ndarray:
    """|hat|^2 per mode and component."""
    return hat.real**2 + hat.imag**2


def _hat_norm_sq(grid: TorusGrid, sq: np.ndarray, s: int, power: int = 0) -> float:
    """||f||^2_{H^s}, ||grad f||^2_{H^s} or ||Delta f||^2_{H^s} (power 0, 1, 2)
    from sq = |fhat|^2."""
    total = np.sum(_mode_weight(grid, s, power) * sq)
    return float(grid.volume / grid.n ** (2 * grid.dim) * total)


def sobolev_norm_sq(f: Field, s: int, power: int = 0) -> float:
    """||f||^2_{H^s}, ||grad f||^2_{H^s} or ||Delta f||^2_{H^s} (power 0, 1, 2),
    summed over components, from one transform of f."""
    return _hat_norm_sq(f.grid, _hat_sq(f.grid.fft(f.values)), s, power)


Norm = Callable[[str, int, int], float]


def _norms(grid: TorusGrid, hats: Mapping[str, np.ndarray]) -> Norm:
    """norm(name, s, power) over named hats; each |hat|^2 and each distinct
    norm is formed once, on first use, so hats may gain names afterwards."""
    sq: dict[str, np.ndarray] = {}
    done: dict[tuple[str, int, int], float] = {}

    def norm(name: str, s: int, power: int = 0) -> float:
        key = (name, s, power)
        if key not in done:
            if name not in sq:
                sq[name] = _hat_sq(hats[name])
            done[key] = _hat_norm_sq(grid, sq[name], s, power)
        return done[key]

    return norm


class _StateHats(dict):
    """The named hats of a state: those given in layout order (a dynamics.Rhs's
    state_hats) or, failing those, the ones the state holds, those given by
    name, and any other field's, transformed on first use;
    jac(name) makes a field's jacobian once, on first use. A B state's "F" is
    the hat of F = (I + G)^{-1}, G = jac("psi"), which the residuals use too.
    geometry, a B dynamics.Rhs's, supplies G, F's values and det(I + G) as its
    kernel made them; without it they are made here on first use, the det
    without inverting I + G."""

    def __init__(self, state: StateA | StateB, hats: Sequence[np.ndarray] = (),
                 geometry: Geometry | None = None, **named: np.ndarray) -> None:
        super().__init__(zip(state.names, hats or state.hats or ()), **named)
        self.state = state
        self.jacs: dict[str, np.ndarray] = {}
        if geometry is not None:
            self.jacs["psi"], self.f_values, self.det = geometry

    def __missing__(self, name: str) -> np.ndarray:
        state = self.state
        if name == "F" and state.formulation == "B":
            values = self.f_values
        else:
            values = getattr(state, name).values
        hat = self[name] = state.grid.fft(values)
        return hat

    def jac(self, name: str) -> np.ndarray:
        if name not in self.jacs:
            self.jacs[name] = jacobian_from_hat(self.state.grid, self[name])
        return self.jacs[name]

    @cached_property
    def i_plus_g(self) -> tuple[np.ndarray, np.ndarray]:
        """A B state's I + G and its determinant, made once."""
        return identity_plus(self.state.grid, self.jac("psi"))

    @cached_property
    def det(self) -> np.ndarray:
        """A B state's det(I + G)."""
        return self.i_plus_g[1]

    @cached_property
    def f_values(self) -> np.ndarray:
        """A B state's F = (I + G)^{-1}."""
        mat, det = self.i_plus_g
        return inverse_values(self.state.grid, mat, "G_to_F", det)


def _basic(norm: Norm) -> float:
    return 0.5 * (norm("v", 0) + norm("F", 0) + norm("M", 0, 1))


def _local(norm: Norm, nu: float, s: int) -> tuple[float, float]:
    e_s = norm("v", s) + norm("F", s) + norm("M", s, 1)
    d_s = nu * norm("v", s, 1) + norm("M", s, 2)
    return e_s, d_s


def _global(norm: Norm, nu: float, s: int, delta: float) -> tuple[float, float]:
    if s < 2:
        raise ValueError(f"global functionals need s >= 2, got {s}")
    e_glob = (
        delta**2 * norm("v", s)
        + norm("M", s, 1)
        + delta * norm("psi", s, 1)
        + norm("dv", s - 2)
        + norm("dpsi", s - 2, 1)
    )
    d_glob = (
        0.5 * delta**2 * nu * norm("v", s, 1)
        + delta**2 * nu * norm("dpsi", s - 2, 1)
        + 2.0 * norm("M", s, 2)
        + delta / (2.0 * nu) * norm("psi", s, 1)
        + nu * norm("dv", s - 2, 1)
    )
    return e_glob, d_glob


# --------------------------------------------------------------------------
# Constraint residuals and the diagnostic record
# --------------------------------------------------------------------------


def _residuals(state: StateA | StateB, hats: _StateHats, s: int | None = None) -> dict[str, float]:
    """constraint_bundle's residuals from a state's hats, the
    key_structure_ratio only when s is given; a B state's G = grad psi is
    hats.jac("psi")."""
    grid = state.grid
    out: dict[str, float] = {}
    out["sphere_res"] = sphere_residual(state.M)
    out["div_v_res"] = float(np.max(np.abs(divergence_from_hat(grid, hats["v"]))))
    if state.formulation == "A":
        det = det_values(grid, state.F.values)
        out["det_res"] = float(np.max(np.abs(det - 1.0)))
        out["curl_res"] = curl_residual(F_to_G(state.F, det))
        out["trG_vs_divpsi_res"] = 0.0
        return out
    psi_hat = hats["psi"]
    G = hats.jac("psi")
    out["det_res"] = float(np.max(np.abs(1.0 / hats.det - 1.0)))
    out["curl_res"] = curl_residual(MatrixField(grid, G))
    trace = np.zeros(grid.shape)
    for j in range(grid.dim):
        trace += G[j, j]
    div_psi = divergence_from_hat(grid, psi_hat)
    out["trG_vs_divpsi_res"] = float(np.max(np.abs(div_psi - trace)))
    if s is not None:
        tr_norm = math.sqrt(sobolev_norm_sq(ScalarField(grid, trace), s))
        gpsi_sq = _hat_norm_sq(grid, _hat_sq(psi_hat), s, 1)
        out["key_structure_ratio"] = tr_norm / gpsi_sq if gpsi_sq > 0 else 0.0
    return out


def basic_energy(state: StateA | StateB) -> float:
    """(1/2)(||v||^2 + ||F||^2 + ||grad M||^2)_{L^2}, a B state's F being (I + grad psi)^{-1}."""
    return _basic(_norms(state.grid, _StateHats(state)))


def constraint_bundle(state: StateA | StateB, s: int = 2) -> dict[str, float]:
    """All geometric residuals of one state.

    Formulation A: det_res and curl_res come from F (via G = F^{-1} - I);
    the div(psi) identity is not defined and reported as 0. Formulation B:
    curl_res is that of G = grad(psi) (near zero by construction), det_res
    is the drift of det(I + G)^{-1} from 1, trG_vs_divpsi_res compares
    tr(G) against div(psi) through two code paths, and
    key_structure_ratio = ||tr G||_{H^s} / ||grad psi||^2_{H^s}. B never
    inverts I + G here, so a near-singular one shows in det_res.
    """
    return _residuals(state, _StateHats(state), s)


@dataclass(frozen=True)
class DiagnosticRecord:
    """One time-stamped row of energies, dissipation rates, and residuals.

    All norms are squared and dimensionless; every entry is finite and the
    residual/squared-norm entries are >= 0. Serializes as one CSV row in
    field order with 17 significant digits.
    """

    t: float
    e_basic: float
    e_s: float
    d_s: float
    e_global: float
    d_global: float
    dt_v_norm: float
    dt_psi_norm: float
    sphere_res: float
    det_res: float
    curl_res: float
    div_v_res: float
    trG_vs_divpsi_res: float

    def to_csv_row(self) -> str:
        return ",".join(format(getattr(self, f.name), ".17g") for f in dataclass_fields(self))


CSV_HEADER = ",".join(f.name for f in dataclass_fields(DiagnosticRecord))


def diagnostic_record(
    state: StateA | StateB,
    params: PhysParams,
    s: int,
    delta: float,
    rhs: Rhs,
) -> DiagnosticRecord:
    """Assemble the full diagnostic row for one state.

    rhs is rhs_A/rhs_B of this state: every norm sums over its state hats,
    and the tendency norms over its instantaneous tendency hats; a B record's
    G, F and det(I + G) are its geometry.
    """
    grid = state.grid
    hats = _StateHats(state, rhs.state_hats, rhs.geometry, dv=rhs.tendency_hats[0])
    bundle = _residuals(state, hats)
    norm = _norms(grid, hats)
    e_s, d_s = _local(norm, params.nu, s)
    e_glob, d_glob, dt_psi = 0.0, 0.0, 0.0
    if state.formulation == "B":
        hats["dpsi"] = rhs.tendency_hats[1]
        e_glob, d_glob = _global(norm, params.nu, s, delta)
        dt_psi = norm("dpsi", s - 2, 1)
    return DiagnosticRecord(
        state.t, _basic(norm), e_s, d_s, e_glob, d_glob, norm("dv", s - 2), dt_psi, **bundle
    )
