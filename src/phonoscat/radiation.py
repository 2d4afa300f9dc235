"""Phonon radiation rates of a microwave mode via the golden rule.

For an infinite elastic medium the radiated power follows from the golden
rule with the plane-wave density of states ``f_3D = V_T / (8 pi^3)``:

    Gamma = 2 pi sum_q int d^3k f_3D |g_q(k)|^2 delta(Omega_q(k) - omega0)

Linear dispersion lets the energy delta collapse onto the isofrequency
surface.  Along a ray the radial derivative of ``Omega = v_q(khat) |k|`` is
the phase velocity, so

    int d^3k delta(Omega - omega0) F = oint dOmega_hat k0^2 F / v_q(khat)

with ``k0 = omega0 / v_q(khat)``.  The quantization volume V_T cancels
exactly between the density of states and the zero-point displacement; it is
kept as an explicit knob so the cancellation is checked, not assumed.

Quadrature is Gauss-Legendre in cos(theta) times a uniform periodic rule in
phi.  The Christoffel eigenpairs at the nodes depend only on the substrate and
the grid, so they come from the substrate's ``AngularTable`` for that grid
(``elastodynamics.angular_table``): solved on first use and kept on the
``MaterialSpec`` instance for its lifetime.  Sweep points, refinement reruns
(whose coarse grid is the previous fine grid) and the regime tag all read
these tables; only the coupling, form factor and phase are evaluated per
point.  Node values are evaluated in fixed-size chunks (optionally across a
thread pool) and reduced by numpy's deterministic pairwise summation in fixed
node order, so serial and threaded runs agree bitwise.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coupling import Inclusion, MicrowaveMode, induced_strain
from .elastodynamics import angular_table, christoffel_many
from .materials import CONSTANTS, MaterialSpec

# Regime boundary: Rayleigh when max_i |k| L_i stays below this.
THETA_REGIME = 0.2

# Fixed evaluation chunk so threading cannot change per-node arithmetic.
_CHUNK = 2048


@dataclass(frozen=True)
class QuadratureSpec:
    """Angular quadrature controls for the isofrequency integral."""

    n_theta: int = 64
    n_phi: int = 128
    tolerance: float = 1e-3  # relative node-doubling tolerance
    threads: int = 1

    def __post_init__(self):
        if self.n_theta < 2 or self.n_phi < 4:
            raise ValueError("quadrature needs n_theta >= 2 and n_phi >= 4")
        if not self.tolerance > 0:
            raise ValueError("quadrature tolerance must be positive")
        if self.threads < 1:
            raise ValueError("thread count must be at least 1")


@dataclass(frozen=True)
class BruteForceSpec:
    """Grid controls for the broadened-delta reference sum."""

    n_theta: int = 129  # composite Simpson nodes over theta, odd
    n_phi: int = 96
    n_radial: int = 33  # Simpson nodes across the Gaussian window, odd
    window: float = 8.0  # half-width of the radial window in units of sigma

    def __post_init__(self):
        if self.n_theta % 2 == 0 or self.n_radial % 2 == 0:
            raise ValueError("Simpson node counts must be odd")


@dataclass(frozen=True)
class QuadratureDiagnostics:
    n_theta: int
    n_phi: int
    nodes: int
    rel_error: float
    converged: bool
    method: str = "quadrature"


@dataclass(frozen=True)
class RadiationResult:
    """Radiated rate, per branch and total, with Q = omega0 / Gamma."""

    omega0: float
    branch_rates: np.ndarray  # (3,) ascending-velocity branch order
    total_rate: float
    q_factor: float
    regime: str
    diagnostics: QuadratureDiagnostics

    def __post_init__(self):
        br = np.asarray(self.branch_rates, dtype=float)
        br.setflags(write=False)
        object.__setattr__(self, "branch_rates", br)


def _inclusion_tables(mode: MicrowaveMode, inclusions) -> list[dict]:
    E = mode.field_zp * mode.field_direction
    tables = []
    for inc in inclusions:
        tables.append(
            {
                "volume": inc.volume,
                "strain": induced_strain(inc.d_lab, E),
                "dims": inc.dimensions,
                "center": inc.center,
                "sign": float(inc.sign),
            }
        )
    return tables


def _node_values(
    mode: MicrowaveMode,
    tables: list[dict],
    substrate: MaterialSpec,
    khats: np.ndarray,
    vels: np.ndarray,
    pols: np.ndarray,
    quantization_volume: float,
) -> np.ndarray:
    """Golden-rule integrand at each direction node, shape (3, n)."""
    hbar = CONSTANTS.hbar
    rho = substrate.rho
    omega0 = mode.omega0
    c = substrate.stiffness_tensor
    golden = (2 * np.pi / hbar**2) * (quantization_volume / (8 * np.pi**3))
    u0_sq = hbar / (2 * rho * omega0 * quantization_volume)
    out = np.empty((3, khats.shape[0]))
    for q in range(3):
        v = vels[:, q]
        e = pols[:, :, q]
        tau = np.einsum("ijkl,nk,nl->nij", c, khats, e)
        k0 = omega0 / v
        coh = np.zeros(khats.shape[0], dtype=complex)
        for t in tables:
            m = np.einsum("nij,ij->n", tau, t["strain"])
            kvec = k0[:, None] * khats
            args = kvec * (t["dims"] / 2.0)
            ff = np.prod(np.sinc(args / np.pi), axis=1)
            phase = np.exp(1j * (kvec @ t["center"]))
            coh += t["volume"] * m * (t["sign"] * ff) * phase
        hg_sq = (k0 * k0 * u0_sq) * (coh.real**2 + coh.imag**2)
        out[q] = golden * (k0 * k0 / v) * hg_sq
    return out


def _gamma_branches(
    mode: MicrowaveMode,
    inclusions,
    substrate: MaterialSpec,
    n_theta: int,
    n_phi: int,
    quantization_volume: float,
    degenerate_rng,
    threads: int,
) -> np.ndarray:
    grid = angular_table(substrate, n_theta, n_phi, degenerate_rng)
    tables = _inclusion_tables(mode, inclusions)
    n = grid.khats.shape[0]
    values = np.empty((3, n))
    spans = [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]

    def work(span):
        a, b = span
        values[:, a:b] = _node_values(
            mode, tables, substrate, grid.khats[a:b], grid.velocities[a:b],
            grid.polarizations[a:b], quantization_volume,
        )

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    # fixed-order pairwise reduction: deterministic for any thread count
    return np.array([np.add.reduce(grid.weights * values[q]) for q in range(3)])


def min_phase_velocity(substrate: MaterialSpec, n_theta: int = 16, n_phi: int = 32) -> float:
    return float(np.min(angular_table(substrate, n_theta, n_phi).velocities))


def regime_label(omega0: float, inclusions, substrate: MaterialSpec) -> str:
    """Informational size-parameter tag: 'rayleigh' or 'mie'."""
    kmax = omega0 / min_phase_velocity(substrate)
    lmax = max(float(np.max(inc.dimensions)) for inc in inclusions)
    return "rayleigh" if kmax * lmax < THETA_REGIME else "mie"


def _as_inclusion_list(inclusions) -> list[Inclusion]:
    if isinstance(inclusions, Inclusion):
        return [inclusions]
    incs = list(inclusions)
    if not incs:
        raise ValueError("at least one inclusion is required")
    return incs


def _result(omega0, branch_rates, regime, diagnostics) -> RadiationResult:
    if not np.all(np.isfinite(branch_rates)):
        raise FloatingPointError(f"non-finite radiated rate per branch: {branch_rates}")
    total = float(np.sum(branch_rates))
    q = omega0 / total if total > 0 else np.inf
    return RadiationResult(
        omega0=omega0,
        branch_rates=branch_rates,
        total_rate=total,
        q_factor=q,
        regime=regime,
        diagnostics=diagnostics,
    )


def mie_rate(
    mode: MicrowaveMode,
    inclusions,
    substrate: MaterialSpec,
    quad: QuadratureSpec | None = None,
    quantization_volume: float = 1.0,
    degenerate_rng: np.random.Generator | None = None,
) -> RadiationResult:
    """Radiated rate with full form factors, any substrate anisotropy.

    The coupling of all inclusions is summed coherently at each node.  The
    rate is evaluated once at the requested node counts and once at doubled
    counts; the doubled result is returned and the relative change reported
    as the quadrature error estimate (non-convergence is flagged, not fatal).
    """
    quad = quad or QuadratureSpec()
    incs = _as_inclusion_list(inclusions)
    if not quantization_volume > 0:
        raise ValueError("quantization volume must be positive")
    coarse = _gamma_branches(
        mode, incs, substrate, quad.n_theta, quad.n_phi,
        quantization_volume, degenerate_rng, quad.threads,
    )
    fine = _gamma_branches(
        mode, incs, substrate, 2 * quad.n_theta, 2 * quad.n_phi,
        quantization_volume, degenerate_rng, quad.threads,
    )
    total = float(np.sum(fine))
    rel = abs(total - float(np.sum(coarse))) / total if total > 0 else 0.0
    diag = QuadratureDiagnostics(
        n_theta=2 * quad.n_theta,
        n_phi=2 * quad.n_phi,
        nodes=4 * quad.n_theta * quad.n_phi,
        rel_error=rel,
        converged=rel <= quad.tolerance,
    )
    return _result(mode.omega0, fine, regime_label(mode.omega0, incs, substrate), diag)


def rayleigh_rate(
    mode: MicrowaveMode, inclusion: Inclusion, substrate: MaterialSpec
) -> RadiationResult:
    """Point-scatterer rate for an isotropic substrate, closed form.

    This is the golden-rule reduction with form factor 1; the angular average
    of the squared strain-stress overlap is evaluated analytically.  With
    ``a`` the field-induced strain, ``t = tr a`` and ``s2 = a:a``:

        <M_L^2>        = lam^2 t^2 + (4 lam mu / 3) t^2
                         + (4 mu^2 / 15) (t^2 + 2 s2)
        sum_T <M_T^2>  = (4 mu^2 / 15) (3 s2 - t^2)

    and ``Gamma_q = V^2 omega0^3 <M^2>_q / (2 pi hbar rho v_q^5)``.  The two
    degenerate shear branches are reported as equal halves of the shear sum.
    Anisotropic substrates are rejected; use mie_rate.
    """
    lam, mu = substrate.lame()  # raises for anisotropic substrates
    rho = substrate.rho
    v_t = np.sqrt(mu / rho)
    v_l = np.sqrt((lam + 2 * mu) / rho)
    E = mode.field_zp * mode.field_direction
    a = induced_strain(inclusion.d_lab, E)
    t = float(np.trace(a))
    s2 = float(np.sum(a * a))
    m2_long = lam**2 * t**2 + (4 * lam * mu / 3) * t**2 + (4 * mu**2 / 15) * (t**2 + 2 * s2)
    m2_shear = (4 * mu**2 / 15) * (3 * s2 - t**2)
    pref = inclusion.volume**2 * mode.omega0**3 / (2 * np.pi * CONSTANTS.hbar * rho)
    gamma_l = pref * m2_long / v_l**5
    gamma_t = pref * m2_shear / v_t**5
    rates = np.array([gamma_t / 2, gamma_t / 2, gamma_l])
    diag = QuadratureDiagnostics(
        n_theta=0, n_phi=0, nodes=0, rel_error=0.0, converged=True, method="analytic"
    )
    return _result(mode.omega0, rates, regime_label(mode.omega0, [inclusion], substrate), diag)


def brute_force_rate(
    mode: MicrowaveMode,
    inclusions,
    substrate: MaterialSpec,
    sigma: float | None = None,
    grid: BruteForceSpec | None = None,
    quantization_volume: float = 1.0,
) -> float:
    """Reference rate by direct 3D k-space summation.

    The energy delta is replaced by a unit-area Gaussian of width ``sigma``
    (default omega0/200, required <= omega0/100) and the golden-rule sum is
    taken over a spherical 3D grid: composite Simpson in theta and in the
    radial window (+- ``grid.window`` sigma around each branch shell), uniform
    in phi.  No isofrequency-surface reduction is used, so this checks the
    delta collapse, the density of states, and the Jacobian independently.
    """
    incs = _as_inclusion_list(inclusions)
    omega0 = mode.omega0
    sigma = omega0 / 200.0 if sigma is None else float(sigma)
    if not 0 < sigma <= omega0 / 100.0:
        raise ValueError("sigma must be positive and at most omega0/100")
    grid = grid or BruteForceSpec()
    hbar = CONSTANTS.hbar
    rho = substrate.rho

    # angular grid: Simpson over theta, uniform over phi (distinct family
    # from the production Gauss-Legendre rule on purpose)
    theta = np.linspace(0.0, np.pi, grid.n_theta)
    w_theta = _simpson_weights(grid.n_theta) * (np.pi / (grid.n_theta - 1))
    phi = 2 * np.pi * np.arange(grid.n_phi) / grid.n_phi
    w_phi = np.full(grid.n_phi, 2 * np.pi / grid.n_phi)
    st, ct = np.sin(theta), np.cos(theta)
    khats = np.stack(
        [
            (st[:, None] * np.cos(phi)[None, :]),
            (st[:, None] * np.sin(phi)[None, :]),
            np.broadcast_to(ct[:, None], (grid.n_theta, grid.n_phi)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    w_ang = (w_theta[:, None] * st[:, None] * w_phi[None, :]).reshape(-1)

    xi = np.linspace(-grid.window, grid.window, grid.n_radial)
    w_xi = _simpson_weights(grid.n_radial) * (2 * grid.window / (grid.n_radial - 1))
    gauss = np.exp(-0.5 * xi * xi) / (sigma * np.sqrt(2 * np.pi))

    tables = _inclusion_tables(mode, incs)
    vels, pols = christoffel_many(substrate, khats)
    c = substrate.stiffness_tensor
    f3d = quantization_volume / (8 * np.pi**3)

    total = 0.0
    for q in range(3):
        v = vels[:, q]
        e = pols[:, :, q]
        tau = np.einsum("ijkl,nk,nl->nij", c, khats, e)
        m = [np.einsum("nij,ij->n", tau, t["strain"]) for t in tables]
        for i in range(xi.size):
            omega = omega0 + sigma * xi[i]
            k = omega / v
            u0_sq = hbar / (2 * rho * omega * quantization_volume)
            coh = np.zeros(khats.shape[0], dtype=complex)
            for t, mj in zip(tables, m):
                kvec = k[:, None] * khats
                args = kvec * (t["dims"] / 2.0)
                ff = np.prod(np.sinc(args / np.pi), axis=1)
                phase = np.exp(1j * (kvec @ t["center"]))
                coh += t["volume"] * mj * (t["sign"] * ff) * phase
            hg_sq = (k * k * u0_sq) * (coh.real**2 + coh.imag**2)
            f = (2 * np.pi / hbar**2) * f3d * hg_sq * gauss[i]
            # measure: k^2 dk dOmega with dk = (sigma/v) dxi
            total += w_xi[i] * float(np.add.reduce(w_ang * (k * k) * (sigma / v) * f))
    return total


def _simpson_weights(n: int) -> np.ndarray:
    if n % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


@dataclass(frozen=True)
class SweepResult:
    """One-axis sweep with per-point radiation results."""

    axis_name: str
    values: np.ndarray
    results: tuple

    @property
    def gammas(self) -> np.ndarray:
        return np.array([r.total_rate for r in self.results])

    @property
    def q_factors(self) -> np.ndarray:
        return np.array([r.q_factor for r in self.results])

    def loglog_slope(self, start: float | None = None, stop: float | None = None) -> float:
        """Least-squares slope of log Q versus log axis over [start, stop]."""
        x = np.asarray(self.values, dtype=float)
        y = self.q_factors
        mask = np.isfinite(y) & (y > 0)
        if start is not None:
            mask &= x >= start
        if stop is not None:
            mask &= x <= stop
        if np.sum(mask) < 2:
            raise ValueError("slope fit needs at least two points in range")
        return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


def _engine(name: str):
    if name == "mie":
        return lambda mode, incs, sub, quad: mie_rate(mode, incs, sub, quad)
    if name == "rayleigh":
        return lambda mode, incs, sub, quad: rayleigh_rate(mode, incs[0], sub)
    raise ValueError(f"unknown engine '{name}', expected 'rayleigh' or 'mie'")


def sweep_frequency(
    mode: MicrowaveMode,
    inclusions,
    substrate: MaterialSpec,
    omegas,
    engine: str = "mie",
    quad: QuadratureSpec | None = None,
) -> SweepResult:
    """Sweep the mode frequency (rad/s) at fixed geometry."""
    incs = _as_inclusion_list(inclusions)
    run = _engine(engine)
    results = []
    for w in np.asarray(omegas, dtype=float):
        m = dataclasses.replace(mode, omega0=float(w))
        results.append(run(m, incs, substrate, quad))
    return SweepResult("omega0", np.asarray(omegas, dtype=float), tuple(results))


def sweep_dimension(
    mode: MicrowaveMode,
    inclusion: Inclusion,
    substrate: MaterialSpec,
    axis: str,
    values,
    engine: str = "mie",
    quad: QuadratureSpec | None = None,
) -> SweepResult:
    """Sweep one geometric parameter of a single inclusion.

    axis 'height': waveguide cross-section h x 2h, length (Lz) fixed.
    axis 'thickness': film thickness Lz, in-plane area fixed.
    """
    run = _engine(engine)
    values = np.asarray(values, dtype=float)
    results = []
    for val in values:
        if axis == "height":
            dims = (float(val), 2 * float(val), float(inclusion.dimensions[2]))
        elif axis == "thickness":
            dims = (float(inclusion.dimensions[0]), float(inclusion.dimensions[1]), float(val))
        else:
            raise ValueError(f"unknown sweep axis '{axis}', expected 'height' or 'thickness'")
        inc = dataclasses.replace(inclusion, dimensions=np.array(dims))
        results.append(run(mode, [inc], substrate, quad))
    return SweepResult(axis, values, tuple(results))


def derived_material_constant(
    result: RadiationResult, mode: MicrowaveMode, inclusion: Inclusion, substrate: MaterialSpec
) -> np.ndarray:
    """Dimensionless per-branch constant obtained by inverting the closed form
    ``Gamma_q = CG_q (V^2 / V_E) 4 pi omega0^4 / v_q^3`` (isotropic substrates).

    Diagnostic only; no rate is ever computed from it.
    """
    lam, mu = substrate.lame()
    v = np.array([np.sqrt(mu / substrate.rho)] * 2 + [np.sqrt((lam + 2 * mu) / substrate.rho)])
    return (
        np.asarray(result.branch_rates)
        * mode.mode_volume
        * v**3
        / (4 * np.pi * inclusion.volume**2 * mode.omega0**4)
    )
