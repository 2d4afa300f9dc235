"""Phonon radiation rates of a microwave mode via the golden rule.

For an infinite elastic medium the radiated power follows from the golden
rule with the plane-wave density of states ``f_3D = V_T / (8 pi^3)``:

    Gamma = 2 pi sum_q int d^3k f_3D |g_q(k)|^2 delta(Omega_q(k) - omega0)

Linear dispersion lets the energy delta collapse onto the isofrequency
surface.  Along a ray the radial derivative of ``Omega = v_q(khat) |k|`` is
the phase velocity, so

    int d^3k delta(Omega - omega0) F = oint dOmega_hat k0^2 F / v_q(khat)

with ``k0 = omega0 / v_q(khat)``.  The quantization volume V_T cancels
exactly between the density of states and the zero-point displacement, so
the engine sets it to 1, as do its two references (the isotropic closed form
and the brute-force broadened-delta sum).

Quadrature is Gauss-Legendre in cos(theta) times a uniform periodic rule in
phi.  The phase velocities and the stress pattern ``tau_q = c : (khat e_q)``
at the nodes depend only on the substrate and the grid, so they come from the
substrate's ``AngularTable`` for that grid (``elastodynamics.angular_table``):
solved on first use and kept on the ``MaterialSpec`` instance for its
lifetime.  Sweep points, refinement reruns (whose coarse grid is the previous
fine grid) and the regime tag all read these tables; the engine never solves
tau itself.

The coupling ``M_q = tau_q : S`` of an inclusion with field-induced strain S
depends only on the substrate, the grid, the branch and S.  A coupling table
(``_CouplingTable``) is the engine's only source of M: it contracts the
table's tau with S once per (grid, strain) for all the points of one
``_rates`` call, or for the two grids of a lone ``mie_rate`` call.  Along the
height, thickness and separation axes the strain does not change, so a sweep
point there costs only the form factor, the phase and the reduction.  Along
omega0 it does (S = d . E and E_zp grows as sqrt(omega0)), so each frequency
point computes its own couplings, and the table keeps only the strains of the
latest point.
One grid's pass, ``_gamma_branches``, evaluates all three branches in
fixed-size node spans (optionally across a thread pool) and reduces them by
numpy's deterministic pairwise summation in fixed node order, so serial and
threaded runs agree bitwise.

``mie_rate`` is the raw primitive and only flags an unconverged estimate.
``_rates`` is the one evaluator: it owns the coupling table, doubles the node
counts of an unconverged point up to twice and raises NumericFailure if the
estimate still has not converged.  ``refined_rate`` is its one-point call;
``sweep``, ``mitigation.dual_waveguide_sweep`` and
``transducer.sweep_orientation`` pass all their points at once.  The
command-line scenarios go through these.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupling import Inclusion, MicrowaveMode, induced_strain
from .elastodynamics import angular_table, christoffel_many, stress_pattern
from .materials import CONSTANTS, MaterialSpec

# Regime boundary: Rayleigh when max_i |k| L_i stays below this.
THETA_REGIME = 0.2

# Fixed evaluation chunk so threading cannot change per-node arithmetic.
_CHUNK = 2048

# Half-width of the brute-force radial window, in units of sigma.
_BRUTE_WINDOW = 8.0
# Brute-force grid: Simpson nodes over theta and the radial window (odd), uniform phi.
_BRUTE_THETA, _BRUTE_PHI, _BRUTE_RADIAL = 129, 96, 33

# How many times _rates re-runs an unconverged quadrature with doubled
# node counts before it raises NumericFailure.
_MAX_REFINEMENTS = 2


class NumericFailure(Exception):
    """No finite answer: unconverged quadrature, or a ratio over a zero rate."""


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
class QuadratureDiagnostics:
    n_theta: int
    n_phi: int
    nodes: int
    rel_error: float
    converged: bool
    method: str = "quadrature"
    refinements: int = 0  # node doublings _rates needed beyond the requested grid


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


class _Sources(NamedTuple):
    """The inclusions of one point as stacked arrays, one row per inclusion."""

    volume: np.ndarray  # (n,)
    strain: np.ndarray  # (n, 3, 3) field-induced strain
    dims: np.ndarray  # (n, 3)
    center: np.ndarray  # (n, 3)
    sign: np.ndarray  # (n,)


def _sources(mode: MicrowaveMode, inclusions) -> _Sources:
    E = mode.field_zp * mode.field_direction
    return _Sources(
        volume=np.array([inc.volume for inc in inclusions]),
        strain=np.array([induced_strain(inc.d_lab, E) for inc in inclusions]),
        dims=np.array([inc.dimensions for inc in inclusions]),
        center=np.array([inc.center for inc in inclusions]),
        sign=np.array([float(inc.sign) for inc in inclusions]),
    )


def _coherent_power(src: _Sources, m: list[np.ndarray], kvec: np.ndarray) -> np.ndarray:
    """|sum_j V_j s_j M_j FF_j(kvec) exp(i kvec . r_j)|^2 at each node.

    The one coherent-sum kernel of the quadrature engine and the brute-force
    oracle.  Inclusions are accumulated one at a time, in list order, so the
    float additions happen in a fixed order.  When every centre is exactly
    zero the phase is exactly 1 + 0j, so the sum is accumulated as a real
    array, bit for bit the same.  The caller builds ``kvec`` and keeps it
    alive across calls: on the oracle's 12k-node grid, freeing it here as
    well made the allocator return and re-fault the heap on every call (+30%
    oracle time).
    """
    centred = not np.any(src.center)
    coh = np.zeros(kvec.shape[0], dtype=float if centred else complex)
    for j in range(src.volume.size):
        ff = np.prod(np.sinc(kvec * (src.dims[j] / 2.0) / np.pi), axis=1)
        term = src.volume[j] * m[j] * (src.sign[j] * ff)
        coh += term if centred else term * np.exp(1j * (kvec @ src.center[j]))
    return coh * coh if centred else coh.real**2 + coh.imag**2


def _each_span(n: int, threads: int, work) -> None:
    """Call ``work(a, b)`` on the fixed node spans of an n-node grid.

    Spans are _CHUNK nodes long whatever the thread count, so a node's
    arithmetic does not depend on how the spans are scheduled.
    """
    spans = [(a, min(a + _CHUNK, n)) for a in range(0, n, _CHUNK)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda span: work(*span), spans))
    else:
        for a, b in spans:
            work(a, b)


def _contract(substrate: MaterialSpec, n_theta: int, n_phi: int, strains, threads: int) -> list:
    """The (3, N) read-only M = tau : S of each strain on the n_theta x n_phi
    grid, filled on the engine's fixed node spans whatever the caller."""
    grid = angular_table(substrate, n_theta, n_phi)
    n = grid.khats.shape[0]
    out = [np.empty((3, n)) for _ in strains]

    def fill(a, b):
        for q in range(3):
            tau = grid.stress(q, a, b)
            for m, s in zip(out, strains):
                m[q, a:b] = np.einsum("nij,ij->n", tau, s)

    _each_span(n, threads, fill)
    for m in out:
        m.setflags(write=False)
    return out


class _CouplingTable:
    """Strain-stress overlap M_q(n) = tau_q(n) : S of one substrate.

    tau comes from the substrate's angular table, so filling M for a new
    strain costs the 9-term contraction alone.  M depends only on the
    substrate, the angular grid, the branch and the inclusion's field-induced
    strain S, not on the inclusion's size or its position.  So along the
    height, thickness and separation axes it is the same at every point, and
    the copies of a pair share it.  S = d . E does change with the frequency,
    through the zero-point field, so an omega0 sweep finds nothing to reuse
    between its points.  ``_rates`` makes the one table of its points and
    drops it when they are done, and a lone ``mie_rate`` makes one for its
    call.  The table holds a (3, N) array per (n_theta, n_phi, strain bytes),
    and only for the strains of the latest request: a request drops the
    arrays of every other strain, so a sweep whose strain changes from point
    to point holds one point's couplings at a time, while a refinement rerun
    (same strains) still finds its coarse grid.
    """

    def __init__(self, substrate: MaterialSpec):
        self.substrate = substrate
        self._m: dict[tuple, np.ndarray] = {}

    def get(self, n_theta: int, n_phi: int, strains, threads: int) -> list[np.ndarray]:
        """The (3, N) read-only M of each strain on the n_theta x n_phi grid."""
        keys = [(n_theta, n_phi, s.tobytes()) for s in strains]
        wanted = {k[2] for k in keys}
        self._m = {k: m for k, m in self._m.items() if k[2] in wanted}
        missing = {k: s for k, s in zip(keys, strains) if k not in self._m}
        if missing:
            fresh = _contract(self.substrate, n_theta, n_phi, list(missing.values()), threads)
            self._m.update(zip(missing, fresh))
        return [self._m[k] for k in keys]


def _gamma_branches(
    mode: MicrowaveMode,
    src: _Sources,
    couplings: _CouplingTable,
    n_theta: int,
    n_phi: int,
    threads: int,
) -> np.ndarray:
    """Golden-rule rate of each branch on one n_theta x n_phi grid, shape (3,).

    The coupling table gives M = tau : S and names the substrate.  All three
    branches on each fixed node span, then one reduction per branch.
    """
    hbar = CONSTANTS.hbar
    omega0 = mode.omega0
    substrate = couplings.substrate
    grid = angular_table(substrate, n_theta, n_phi)
    m = couplings.get(n_theta, n_phi, src.strain, threads)
    golden = (2 * np.pi / hbar**2) * (1.0 / (8 * np.pi**3))
    u0_sq = hbar / (2 * substrate.rho * omega0)
    n = grid.khats.shape[0]
    values = np.empty((3, n))

    def work(a, b):
        for q in range(3):
            v = grid.velocities[a:b, q]
            k0 = omega0 / v
            kvec = k0[:, None] * grid.khats[a:b]
            hg_sq = (k0 * k0 * u0_sq) * _coherent_power(src, [mj[q, a:b] for mj in m], kvec)
            values[q, a:b] = golden * (k0 * k0 / v) * hg_sq

    _each_span(n, threads, work)
    # fixed-order pairwise reduction: deterministic for any thread count
    return np.array([np.add.reduce(grid.weights * values[q]) for q in range(3)])


def min_phase_velocity(substrate: MaterialSpec) -> float:
    """Slowest phase velocity over the 16 x 32 angular grid."""
    return float(np.min(angular_table(substrate, 16, 32).velocities))


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
    *,
    couplings: _CouplingTable | None = None,
) -> RadiationResult:
    """Radiated rate with full form factors, any substrate anisotropy.

    The coupling of all inclusions is summed coherently at each node, with
    V_T = 1.  The rate is evaluated once at the requested node counts and
    once at doubled counts; the doubled result is returned and the relative
    change reported as the quadrature error estimate (non-convergence is
    flagged, not fatal; ``refined_rate`` is the path that acts on the flag).

    ``couplings`` is the coupling table that ``_rates`` shares between its
    points and refinement reruns; it supplies M = tau : S for each grid and
    strain and fills what it lacks.  It belongs to ``substrate``.  None makes
    a table for this call alone, so the copies of a pair still share their
    couplings.  The result is the same either way, bit for bit.

    Convergence is judged on the total rate summed over the three branches,
    not branch by branch: the total is the loss the quality factor reports,
    and a branch that carries a tiny share of it may keep a larger relative
    error without moving Q.
    """
    quad = quad or QuadratureSpec()
    incs = _as_inclusion_list(inclusions)
    src = _sources(mode, incs)
    if couplings is None:
        couplings = _CouplingTable(substrate)
    coarse = _gamma_branches(mode, src, couplings, quad.n_theta, quad.n_phi, quad.threads)
    fine = _gamma_branches(mode, src, couplings, 2 * quad.n_theta, 2 * quad.n_phi, quad.threads)
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


def _rates(substrate: MaterialSpec, points, quad: QuadratureSpec | None = None) -> list[RadiationResult]:
    """The converged ``mie_rate`` of each (mode, inclusions) point, in order.

    The one place that decides between refining and failing: an unconverged
    point is re-run with doubled node counts, and after _MAX_REFINEMENTS
    doublings it raises NumericFailure rather than return a silently degraded
    answer; the diagnostics record the doublings.  All runs read one coupling
    table, so a rerun finds its coarse grid (the previous fine grid) computed.
    """
    quad = quad or QuadratureSpec()
    couplings = _CouplingTable(substrate)
    results = []
    for mode, inclusions in points:
        for refinements in range(_MAX_REFINEMENTS + 1):
            k = 2**refinements
            q = dataclasses.replace(quad, n_theta=k * quad.n_theta, n_phi=k * quad.n_phi)
            result = mie_rate(mode, inclusions, substrate, q, couplings=couplings)
            if result.diagnostics.converged:
                break
        d = dataclasses.replace(result.diagnostics, refinements=refinements)
        if not d.converged:
            raise NumericFailure(
                f"quadrature did not reach tolerance {quad.tolerance:g} after "
                f"{refinements} refinements (n_theta={d.n_theta}, n_phi={d.n_phi}, "
                f"relative error {d.rel_error:.2e})"
            )
        results.append(dataclasses.replace(result, diagnostics=d))
    return results


def refined_rate(
    mode: MicrowaveMode,
    inclusions,
    substrate: MaterialSpec,
    quad: QuadratureSpec | None = None,
) -> RadiationResult:
    """``mie_rate``, re-run with doubled node counts until it converges.

    One point through ``_rates``: NumericFailure after _MAX_REFINEMENTS
    doublings, and the diagnostics record how many doublings were needed.
    """
    return _rates(substrate, [(mode, inclusions)], quad)[0]


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
) -> float:
    """Reference rate by direct 3D k-space summation.

    The energy delta is replaced by a unit-area Gaussian of width
    ``sigma = omega0/200`` and the golden-rule sum is
    taken over a spherical 3D grid: composite Simpson in theta and in the
    radial window (+- ``_BRUTE_WINDOW`` sigma around each branch shell),
    uniform in phi.  No isofrequency-surface reduction is used, so this checks
    the delta collapse, the density of states, and the Jacobian independently.
    V_T is 1 (it cancels), and every caller shares the fixed ``_BRUTE_*`` grid.
    """
    incs = _as_inclusion_list(inclusions)
    omega0 = mode.omega0
    sigma = omega0 / 200.0
    hbar = CONSTANTS.hbar
    rho = substrate.rho

    # angular grid: Simpson over theta, uniform over phi (distinct family
    # from the production Gauss-Legendre rule on purpose)
    theta = np.linspace(0.0, np.pi, _BRUTE_THETA)
    w_theta = _simpson_weights(_BRUTE_THETA) * (np.pi / (_BRUTE_THETA - 1))
    phi = 2 * np.pi * np.arange(_BRUTE_PHI) / _BRUTE_PHI
    w_phi = np.full(_BRUTE_PHI, 2 * np.pi / _BRUTE_PHI)
    st, ct = np.sin(theta), np.cos(theta)
    khats = np.stack(
        [
            (st[:, None] * np.cos(phi)[None, :]),
            (st[:, None] * np.sin(phi)[None, :]),
            np.broadcast_to(ct[:, None], (_BRUTE_THETA, _BRUTE_PHI)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    w_ang = (w_theta[:, None] * st[:, None] * w_phi[None, :]).reshape(-1)

    xi = np.linspace(-_BRUTE_WINDOW, _BRUTE_WINDOW, _BRUTE_RADIAL)
    w_xi = _simpson_weights(_BRUTE_RADIAL) * (2 * _BRUTE_WINDOW / (_BRUTE_RADIAL - 1))
    gauss = np.exp(-0.5 * xi * xi) / (sigma * np.sqrt(2 * np.pi))

    src = _sources(mode, incs)
    vels, pols = christoffel_many(substrate, khats)
    c = substrate.stiffness_tensor
    f3d = 1 / (8 * np.pi**3)

    total = 0.0
    for q in range(3):
        v = vels[:, q]
        tau = stress_pattern(c, khats, pols[:, :, q])
        m = [np.einsum("nij,ij->n", tau, s) for s in src.strain]
        for i in range(xi.size):
            omega = omega0 + sigma * xi[i]
            k = omega / v
            u0_sq = hbar / (2 * rho * omega)
            kvec = k[:, None] * khats
            hg_sq = (k * k * u0_sq) * _coherent_power(src, m, kvec)
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

    def loglog_slope(self) -> float:
        """Slope of log Q versus log axis value, by ``loglog_slope``'s rule."""
        return loglog_slope(self.values, self.q_factors)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y versus log x.

    The points with x > 0 and a finite y > 0 count: at least three, on an x
    axis that is not constant (relative spread above 1e-5), or ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x > 0) & np.isfinite(y) & (y > 0)
    if np.sum(mask) < 3 or np.allclose(x[mask], x[mask][0], atol=0.0):
        raise ValueError(
            "slope fit needs at least three points with x > 0 and a finite y > 0, "
            "on an x axis that is not constant"
        )
    return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


def sweep_point(mode: MicrowaveMode, inclusions, axis: str, value: float):
    """The (mode, inclusions) of one sweep point; ``value`` in SI units.

    axis 'omega0': mode frequency (rad/s) at fixed geometry.
    axis 'height': waveguide cross-section h x 2h, length (Lz) fixed.
    axis 'thickness': film thickness Lz, in-plane area fixed.
    """
    incs = _as_inclusion_list(inclusions)
    if axis == "omega0":
        return dataclasses.replace(mode, omega0=value), incs
    if axis not in ("height", "thickness"):
        raise ValueError(f"unknown sweep axis '{axis}', expected 'omega0', 'height' or 'thickness'")
    if len(incs) != 1:
        raise ValueError(f"sweep axis '{axis}' needs exactly one inclusion")
    L = incs[0].dimensions
    dims = (value, 2 * value, L[2]) if axis == "height" else (L[0], L[1], value)
    return mode, [dataclasses.replace(incs[0], dimensions=np.array(dims, dtype=float))]


def sweep(
    mode: MicrowaveMode,
    inclusions,
    substrate: MaterialSpec,
    axis: str,
    values,
    quad: QuadratureSpec | None = None,
    engine: str = "mie",
) -> SweepResult:
    """Rates along one axis (see ``sweep_point``), one result per value.

    engine 'mie' evaluates all points in one ``_rates`` call, so each result
    is converged or the sweep raises NumericFailure; engine 'rayleigh' uses
    the closed form and needs exactly one inclusion.  The mie points share
    one coupling table, so along height and thickness the coupling of a grid
    is computed once per sweep, not once per point; along omega0 the strain
    changes at every point and each point computes its own.
    """
    incs = _as_inclusion_list(inclusions)
    if engine not in ("mie", "rayleigh"):
        raise ValueError(f"unknown engine '{engine}', expected 'rayleigh' or 'mie'")
    if engine == "rayleigh" and len(incs) != 1:
        raise ValueError("the rayleigh engine needs exactly one inclusion")
    values = np.asarray(values, dtype=float)
    points = [sweep_point(mode, incs, axis, float(v)) for v in values]
    if engine == "mie":
        results = _rates(substrate, points, quad)
    else:
        results = [rayleigh_rate(m, point[0], substrate) for m, point in points]
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
