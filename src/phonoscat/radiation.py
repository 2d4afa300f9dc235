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
phi.  At each node and branch the integrand is

    A * (B * |sum_j s_j V_j M_j FF_j exp(i k . r_j)|^2)

with ``A = golden k0^2 / v``, ``B = k0^2 u0^2``, the coupling
``M = tau : S`` of an inclusion with field-induced strain S, and the cuboid
form factor ``FF = sinc(k0 khat_x L_x / 2) sinc(k0 khat_y L_y / 2)
sinc(k0 khat_z L_z / 2)``.  The costly factors are computed once for what
they depend on, and the points of a sweep share them:

- per (substrate, grid): the phase velocities and the stress pattern
  ``tau_q = c : (khat e_q)`` as full 3x3 tensors, 240 B/node, in the substrate's
  ``AngularTable`` (``elastodynamics.angular_table``), solved on first use
  and kept for the life of the process;
- per grid: the directions and weights, 32 B/node, which every substrate's
  table on that grid shares;
- per (grid, strain): M, 24 B/node;
- per (grid, omega0): the wave factors ``k0``, ``A`` and ``B``, 72 B/node;
- per (grid, omega0, axis, L): one sinc column of the form factor, 24 B/node,
  evaluated on half the rings of a mirror-symmetric substrate (``sapphire_iso``
  and ``silicon``; ``AngularTable.mirrored``) and copied to the other half.

The last three live in a ``_SweepTables`` that ``_rates`` makes for its
points and drops when they are done; one ``factors`` call gathers a grid
pass's table and all three.  So a height point computes only its x
and y sinc columns, a thickness point only its z column, and a separation
point or an orientation angle no column (an angle computes its own M, since
the strain turns with the crystal).  A frequency point computes everything
but the angular table.  What remains per point is the product of the
columns, V M, the phase of an off-centre inclusion, the coherent sum and the
reduction.  The phase costs one cosine and one sine per node for each
off-centre inclusion.  An antipodal pair (the two copies of a
``dual_waveguide`` pair about the origin) costs one sine (opposite signs) or
one cosine (equal signs) per node.  One grid's pass,
``_gamma_branches``, evaluates all three branches together on fixed-size
node spans and reduces them by numpy's pairwise summation in fixed node
order.  Every factor is computed in the float order of a point that
computes it alone, so a sweep point equals its lone ``refined_rate`` bit
for bit.

``mie_rate`` is the raw primitive and only flags an unconverged estimate.
``_rates`` is the one evaluator: it owns the sweep tables, doubles the node
counts of an unconverged point up to twice and raises NumericFailure if the
estimate still has not converged, or if a doubling would build a grid with
more nodes than the fine grid of a request at the ``_MAX_THETA`` x
``_MAX_PHI`` cap.
``refined_rate`` is its one-point call; ``sweep``,
``mitigation.dual_waveguide_sweep`` and ``transducer.sweep_orientation`` pass
all their points at once.  The command-line scenarios go through these.

``brute_force_rate``, the independent oracle, splits its work the same way
on its own Simpson x uniform grid (built once, about 0.4 MB): the
Christoffel solve and the einsum stress once per (rho, C), an
``AngularTable`` in the same memo under (rho, C, "oracle") (about 2.8 MB per
substrate, never evicted, never mirrored), and per call only the radial
loop, which evaluates every sinc into buffers allocated once per call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .coupling import Inclusion, MicrowaveMode, induced_strain
from .elastodynamics import AngularTable, _memo_table, _product_grid, _spans
from .elastodynamics import angular_table, christoffel_many, stress_pattern
from .materials import CONSTANTS, MaterialSpec, ParameterError

# Regime boundary: Rayleigh when max_i |k| L_i stays below this.
THETA_REGIME = 0.2

# Node-span size of a grid pass.  Every per-node operation is elementwise,
# and kvec @ r rounds the same in any span of two or more nodes, so the size
# sets speed and the temporaries' memory, not the values.
# Measured with perfbench (probe-scaled wall_s, 2 vCPUs): 4096 halves the
# per-span Python work of 2048, 7.7% off sweep_hot and 2.5% off orientation;
# 8192 was 17% slower than 4096 on orientation and 3% on sweep_hot, with
# 1 MB more peak memory.
_CHUNK = 4096

# What np.sinc puts in place of an exact zero argument.
_EPS = np.finfo(float).eps

# Half-width of the brute-force radial window, in units of sigma.
_BRUTE_WINDOW = 8.0
# Brute-force grid: Simpson nodes over theta and the radial window (odd), uniform phi.
_BRUTE_THETA, _BRUTE_PHI, _BRUTE_RADIAL = 129, 96, 33

# How many times _rates re-runs an unconverged quadrature with doubled
# node counts before it raises NumericFailure.
_MAX_REFINEMENTS = 2

# The largest grid a caller may request.  mie_rate also reads the doubled
# grid, so the largest request reads 2048 x 4096 nodes (2.01 GB of angular
# table per substrate at 240 B/node, plus 0.27 GB once for the grid's
# directions and weights at 32 B/node), and _rates builds no refinement
# with more nodes: it raises NumericFailure first.  A lopsided request may
# still refine along its short axis.  Its n_theta stays at most 8192 (the request cap doubled
# by mie_rate and by _MAX_REFINEMENTS), whose Gauss-Legendre companion
# matrix is 0.5 GB.
_MAX_THETA, _MAX_PHI = 1024, 2048


class NumericFailure(Exception):
    """No finite answer: unconverged quadrature, a non-finite rate, or a ratio over a zero rate."""


def _require_nonzero(rate: float, what: str, consequence: str) -> None:
    """NumericFailure when ``rate`` is zero, naming the rate and what that leaves undefined."""
    if rate == 0:
        raise NumericFailure(f"{what} is exactly zero, so {consequence}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Angular quadrature controls for the isofrequency integral."""

    n_theta: int = 64
    n_phi: int = 128
    tolerance: float = 1e-3  # relative node-doubling tolerance, at least the double epsilon
    # Not a field: every grid pass is serial.  This constant exists only for
    # the benchmark's single-thread pin (perfbench/test_perfbench.py reads
    # cfg.quad.threads); the benchmark change that drops the pin (ROADMAP
    # item 2) deletes both.
    threads = 1

    def __post_init__(self):
        if self.n_theta < 2:
            raise ParameterError("n_theta", "quadrature needs n_theta >= 2")
        if self.n_phi < 4:
            raise ParameterError("n_phi", "quadrature needs n_phi >= 4")
        eps = np.finfo(float).eps
        if not self.tolerance >= eps:  # a smaller relative change is rounding
            raise ParameterError("tolerance", f"quadrature tolerance must be at least {eps:.3g}, the double epsilon")


@dataclass(frozen=True)
class QuadratureDiagnostics:
    n_theta: int
    n_phi: int
    rel_error: float
    converged: bool
    refinements: int = 0  # node doublings _rates needed beyond the requested grid

    @property
    def nodes(self) -> int:
        return self.n_theta * self.n_phi

    @property
    def method(self) -> str:
        return "analytic" if self.nodes == 0 else "quadrature"


@dataclass(frozen=True)
class RadiationResult:
    """Finite radiated rate per branch, else NumericFailure; its total and Q = omega0 / Gamma (inf at 0).

    On an isotropic substrate the two shear branches are degenerate at every
    node, and ``eigh`` returns an arbitrary basis of that plane there.  So
    ``branch_rates[0]`` and ``branch_rates[1]`` alone depend on that choice;
    only their sum, the shear rate, is meaningful.
    """

    omega0: float
    branch_rates: np.ndarray  # (3,) ascending-velocity branch order
    regime: str
    diagnostics: QuadratureDiagnostics

    def __post_init__(self):
        br = np.asarray(self.branch_rates, dtype=float)
        if not np.all(np.isfinite(br)):
            raise NumericFailure(f"non-finite radiated rate per branch: {br}")
        br.setflags(write=False)
        object.__setattr__(self, "branch_rates", br)

    @property
    def total_rate(self) -> float:
        return float(np.sum(self.branch_rates))

    @property
    def q_factor(self) -> float:
        total = self.total_rate
        return self.omega0 / total if total > 0 else np.inf


class _Sources(NamedTuple):
    """The inclusions of one point as stacked arrays, one row per inclusion."""

    volume: np.ndarray  # (n,) signed volume s_j V_j: the sign flips the whole amplitude
    strain: np.ndarray  # (n, 3, 3) field-induced strain
    dims: np.ndarray  # (n, 3)
    center: np.ndarray  # (n, 3)
    centred: bool  # every centre exactly at the origin: the phase is 1
    part: str | None  # "sin" or "cos": the one phase part of an antipodal pair


def _sources(mode: MicrowaveMode, inclusions) -> _Sources:
    """The stacked inclusions, with ``part`` set for an antipodal pair: two
    inclusions with the same |volume|, strain and dimensions, bit for bit, at
    centres r and -r with r != 0 (``_coherent_power`` says why one part
    suffices).  The part is sin for opposite signs and cos for equal ones."""
    E = mode.field_zp * mode.field_direction
    volume = np.array([inc.sign * inc.volume for inc in inclusions])
    strain = np.array([induced_strain(inc.d_lab, E) for inc in inclusions])
    dims = np.array([inc.dimensions for inc in inclusions])
    center = np.array([inc.center for inc in inclusions])
    twins = len(inclusions) == 2 and all(x[0].tobytes() == x[1].tobytes() for x in (abs(volume), strain, dims))
    antipodal = twins and np.any(center[0]) and np.array_equal(center[1], -center[0])
    part = ("sin" if volume[0] != volume[1] else "cos") if antipodal else None
    return _Sources(volume, strain, dims, center, centred=not np.any(center), part=part)


def _sinc(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sin(x) / x with 1 at x = 0: ``np.sinc(x / pi)`` bit for bit.

    It runs np.sinc's own operations (divide by pi, multiply by pi, exact
    zeros replaced by the float epsilon, sin(y) / y) in place on one copy of
    ``x``, so it makes two float arrays where ``np.sinc(x / pi)`` makes five.
    With ``out`` it makes none: ``x`` is scratch, overwritten in place, and
    the result is written into ``out``.
    """
    y = x / np.pi if out is None else np.divide(x, np.pi, out=x)
    y *= np.pi
    y[y == 0] = _EPS
    s = np.sin(y, out=out)
    s /= y
    return s


def _wave_vectors(k: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """k khat from (3, n) direction rows, C-contiguous: ``kvec @ r`` rounds differently on a strided view."""
    kvec = np.empty((*k.shape, 3))
    for c in range(3):
        np.multiply(k, rows[c], out=kvec[..., c])
    return kvec


def _coherent_power(src: _Sources, vm: list[np.ndarray], ff: list[np.ndarray], kvec: np.ndarray | None) -> np.ndarray:
    """|sum_j (s_j V_j M_j) FF_j exp(i kvec . r_j)|^2 at each node.

    The one coherent-sum kernel of the quadrature engine and the brute-force
    oracle: ``vm[j]`` is s_j V_j M_j, the signed volume ``src.volume[j]``
    times M_j, and ``ff[j]`` the form factor of inclusion j
    at the nodes, of any one shape, and ``kvec`` has that shape plus a last
    axis of 3.  Inclusions are accumulated one at a time, in list order, so
    the float additions happen in a fixed order.  When ``src.centred`` the
    phase is exactly 1, so the sum is accumulated as one real array and
    ``kvec`` is not read (it may be None).  Otherwise the caller builds
    ``kvec`` and keeps it alive across calls: on the oracle's 12k-node grid,
    freeing it here as well made the allocator return and re-fault the heap
    on every call (+30% oracle time).  The result is an array of the
    kernel's own: it never writes into ``vm`` or ``ff``, which the oracle
    reuses across its radial nodes.

    The phase exp(i x) of x = kvec . r_j is taken as (cos x, sin x), one
    cosine and one sine per centre, which are the parts of
    ``np.exp(1j * x)`` bit for bit, and the real and the imaginary part of
    the sum are accumulated as two real arrays: a real term t times
    (c + i s) is (t c, t s) exactly.  Each sum starts from the first term
    and adds every later one.

    An antipodal pair (``src.part``) has terms t and +-t, and
    kvec . (-r) == -(kvec . r) with cos even and sin odd, so that sum is
    (t c +- t c, t s -+ t s): one part is x - x = +0 and the other
    h = t p + t p with p = ``src.part`` of x = kvec . r_0.  The square
    is h * h bit for bit (+0 + y * y == y * y) for finite t (an infinite one
    gives inf where the general path gives nan), so only ``vm[0]``, ``ff[0]``
    and one phase part are read.
    """
    if src.part is not None:
        h = vm[0] * ff[0]
        h *= getattr(np, src.part)(kvec @ src.center[0])
        h += h
        h *= h
        return h
    for j in range(src.volume.size):
        t = vm[j] * ff[j]
        if src.centred:
            terms = [t]
        else:
            arg = kvec @ src.center[j]
            terms = [t * np.cos(arg), t * np.sin(arg)]
        if j == 0:
            sums = terms
        else:
            for acc, term in zip(sums, terms):
                acc += term
    for acc in sums:
        acc *= acc
    if src.centred:
        return sums[0]
    re, im = sums
    re += im
    return re


class _Wave(NamedTuple):
    """The factors of the integrand that depend on the grid and omega0 alone,
    each a C-contiguous, read-only (3, N) array, one row per branch."""

    k0: np.ndarray  # omega0 / v
    A: np.ndarray  # golden k0^2 / v
    B: np.ndarray  # k0^2 u0^2


def _wave(table: AngularTable, rho: float, omega0: float) -> _Wave:
    """k0, A and B of every branch and node of ``table``, a substrate of density ``rho``."""
    hbar = CONSTANTS.hbar
    golden = (2 * np.pi / hbar**2) * (1.0 / (8 * np.pi**3))
    u0_sq = hbar / (2 * rho * omega0)
    v = table.velocities
    k0 = omega0 / v
    k0_sq = k0 * k0
    wave = _Wave(k0, golden * (k0_sq / v), k0_sq * u0_sq)
    for row in wave:
        row.setflags(write=False)
    return wave


def _sinc_columns(table: AngularTable, n_theta: int, n_phi: int, k0: np.ndarray, axis_lengths) -> list:
    """The (3, N) read-only sinc(k0 khat_axis L / 2) of each (axis, L) in
    ``axis_lengths`` on ``table``, the n_theta x n_phi grid, from the (3, N)
    ``k0`` of its wave entry, one ``_sinc`` call per column.  On a
    ``mirrored`` table ring n_theta-1-i copies ring i of the first
    ceil(n_theta / 2), bit for bit: equal x and y arguments, a negated z
    argument, and ``_sinc`` is even."""
    h = (n_theta + 1) // 2 if table.mirrored else n_theta
    head = h * n_phi
    cols = []
    for axis, length in axis_lengths:
        col = np.empty((3, table.weights.size))
        col[:, :head] = _sinc(k0[:, :head] * table.khats[axis, :head] * (length / 2.0))
        rings = col.reshape(3, n_theta, n_phi)
        rings[:, h:] = rings[:, : n_theta - h][:, ::-1]
        col.setflags(write=False)
        cols.append(col)
    return cols


def _fetch(store: dict, grid: tuple, tags: list, build) -> list:
    """The entries of ``tags`` on ``grid``, in order, from ``store``.

    Entries are keyed (grid, tag).  The request first drops every entry whose
    tag it does not want, on any grid, so a sweep whose tag changes from point
    to point holds one point's entries at a time, while a refinement rerun
    (same tags) still finds its coarse grid.  ``build(tags)`` then makes the
    missing entries, each distinct tag once.
    """
    wanted = set(tags)
    for key in [key for key in store if key[1] not in wanted]:
        del store[key]
    missing = [t for t in dict.fromkeys(tags) if (grid, t) not in store]
    if missing:
        store.update(zip([(grid, t) for t in missing], build(missing)))
    return [store[grid, t] for t in tags]


class _SweepTables:
    """The per-grid factors that the points of one ``_rates`` call share.

    Each entry holds read-only (3, N) arrays, one row per branch, of one
    substrate on one n_theta x n_phi grid:

    - ``M = tau : S`` per (grid, strain), 24 B/node, one einsum over the
      table's stresses, so a new strain costs the 9-term contraction alone.
      S = d . E does not change along the height, thickness and separation
      axes, and the copies of a pair share it; it changes with the crystal
      orientation, and with omega0 through the zero-point field.
    - the wave factors ``k0 = omega0 / v``, ``A = golden k0^2 / v`` and
      ``B = k0^2 u0^2`` per (grid, omega0), 72 B/node (``_wave``).  Only a
      frequency point builds new ones.
    - ``sinc(k0 khat_a L_a / 2)`` per (grid, omega0, axis a, L_a), 24 B/node
      (``_sinc_columns``).  Inclusions with the same length on an axis share
      the column, and a mirrored table's columns are evaluated on half the
      rings.

    ``factors`` serves one grid pass: one table lookup, then each kind
    through ``_fetch``, which keeps only the keys of the latest request: a
    height sweep holds one wave entry and one z column and one point's x and
    y columns per grid, and a frequency sweep holds one point's entries.
    ``_rates`` makes the one instance of its points and drops it when they
    are done, and a lone ``mie_rate`` makes one for its two grids.
    """

    def __init__(self, substrate: MaterialSpec):
        self.substrate = substrate
        self._m: dict[tuple, np.ndarray] = {}
        self._wave: dict[tuple, _Wave] = {}
        self._sinc: dict[tuple, np.ndarray] = {}

    def factors(self, n_theta: int, n_phi: int, omega0: float, src: _Sources) -> tuple:
        """(angular table, M of each source, wave factors, [x, y, z] sinc
        columns of each source) at omega0 on the n_theta x n_phi grid."""
        grid = (n_theta, n_phi)
        table = angular_table(self.substrate, n_theta, n_phi)
        by_key = {s.tobytes(): s for s in src.strain}

        def contract(keys):
            out = [np.einsum("qnij,ij->qn", table.stresses, by_key[k]) for k in keys]
            for m in out:
                m.setflags(write=False)
            return out

        m = _fetch(self._m, grid, [s.tobytes() for s in src.strain], contract)
        wave = _fetch(self._wave, grid, [omega0], lambda _: [_wave(table, self.substrate.rho, omega0)])[0]
        tags = [(omega0, axis, float(length)) for lengths in src.dims for axis, length in enumerate(lengths)]
        cols = _fetch(self._sinc, grid, tags, lambda new: _sinc_columns(table, *grid, wave.k0, [t[1:] for t in new]))
        return table, m, wave, [cols[3 * j : 3 * j + 3] for j in range(len(src.dims))]


def _gamma_branches(
    mode: MicrowaveMode,
    src: _Sources,
    tables: _SweepTables,
    n_theta: int,
    n_phi: int,
) -> np.ndarray:
    """Golden-rule rate of each branch on one n_theta x n_phi grid, shape (3,).

    One ``tables.factors`` call gives the angular table, M, the wave factors
    and the sinc columns.  Each fixed node span builds kvec = k0 khat of an
    off-centre source and evaluates A * (B * |sum|^2) for all three branches
    at once, as (3, span) blocks, scaling the kernel's array in place and
    writing the product straight into the grid's values; then one reduction
    per branch.  An antipodal pair passes its first copy's term alone.
    """
    grid, m, wave, cols = tables.factors(n_theta, n_phi, mode.omega0, src)
    n = grid.weights.size
    values = np.empty((3, n))
    terms = 1 if src.part else src.volume.size  # the kernel reads a pair's first term alone

    def work(a, b):  # a function, so one span's temporaries are freed before the next span's are made
        vm = [vol * mj[:, a:b] for vol, mj in zip(src.volume[:terms], m)]
        ff = []
        for x, y, z in cols[:terms]:
            f = x[:, a:b] * y[:, a:b]
            f *= z[:, a:b]
            ff.append(f)
        kvec = None if src.centred else _wave_vectors(wave.k0[:, a:b], grid.khats[:, a:b])
        p = _coherent_power(src, vm, ff, kvec)
        p *= wave.B[:, a:b]
        np.multiply(wave.A[:, a:b], p, out=values[:, a:b])

    for a in range(0, n, _CHUNK):
        work(a, min(a + _CHUNK, n))
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


def mie_rate(
    mode: MicrowaveMode,
    inclusions,
    substrate: MaterialSpec,
    quad: QuadratureSpec | None = None,
    *,
    tables: _SweepTables | None = None,
) -> RadiationResult:
    """Radiated rate with full form factors, any substrate anisotropy.

    The coupling of all inclusions is summed coherently at each node, with
    V_T = 1.  The rate is evaluated once at the requested node counts and
    once at doubled counts; the doubled result is returned and the relative
    change reported as the quadrature error estimate (non-convergence is
    flagged, not fatal; ``refined_rate`` is the path that acts on the flag).

    ``tables`` are the sweep tables that ``_rates`` shares between its points
    and refinement reruns; they supply M, the wave factors and the sinc
    columns of each grid and fill what they lack.  They belong to
    ``substrate``.  None makes tables for this call alone, so the copies of a
    pair still share their couplings and columns.  The result is the same either way, bit for bit.

    Convergence is judged on the total rate summed over the three branches,
    not branch by branch: the total is the loss the quality factor reports,
    and a branch that carries a tiny share of it may keep a larger relative
    error without moving Q.
    """
    quad = quad or QuadratureSpec()
    incs = _as_inclusion_list(inclusions)
    if tables is None:
        tables = _SweepTables(substrate)
    with np.errstate(all="ignore"):  # RadiationResult refuses overflow; "all" skips numpy's status checks
        src = _sources(mode, incs)
        coarse = _gamma_branches(mode, src, tables, quad.n_theta, quad.n_phi)
        fine = _gamma_branches(mode, src, tables, 2 * quad.n_theta, 2 * quad.n_phi)
        total = float(np.sum(fine))
        rel = abs(total - float(np.sum(coarse))) / total if total > 0 else 0.0
    diag = QuadratureDiagnostics(
        n_theta=2 * quad.n_theta, n_phi=2 * quad.n_phi, rel_error=rel, converged=rel <= quad.tolerance
    )
    return RadiationResult(mode.omega0, fine, regime_label(mode.omega0, incs, substrate), diag)


def _rates(substrate: MaterialSpec, points, quad: QuadratureSpec | None = None) -> list[RadiationResult]:
    """The converged ``mie_rate`` of each (mode, inclusions) point, in order.

    The one place that decides between refining and failing: an unconverged
    point is re-run with doubled node counts, and after _MAX_REFINEMENTS
    doublings it raises NumericFailure rather than return a silently degraded
    answer; the diagnostics record the doublings.  A doubling whose fine grid
    would have more nodes than that of a _MAX_THETA x _MAX_PHI request raises
    NumericFailure before it builds anything.  All runs read one set of sweep
    tables, so a rerun finds its coarse grid (the previous fine grid)
    computed.
    """
    quad = quad or QuadratureSpec()
    tables = _SweepTables(substrate)
    results = []
    for mode, inclusions in points:
        for refinements in range(_MAX_REFINEMENTS + 1):
            k = 2**refinements
            q = dataclasses.replace(quad, n_theta=k * quad.n_theta, n_phi=k * quad.n_phi)
            if refinements and q.n_theta * q.n_phi > _MAX_THETA * _MAX_PHI:
                d = result.diagnostics
                raise NumericFailure(
                    f"quadrature did not reach tolerance {quad.tolerance:g} at n_theta={d.n_theta}, "
                    f"n_phi={d.n_phi} (relative error {d.rel_error:.2e}), and the next refinement's "
                    f"{2 * q.n_theta} x {2 * q.n_phi} grid has more nodes than the largest grid, "
                    f"{2 * _MAX_THETA} x {2 * _MAX_PHI}"
                )
            result = mie_rate(mode, inclusions, substrate, q, tables=tables)
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
    # float64, not Python float, powers: an overflow gives inf, which RadiationResult refuses
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.trace(a)
        s2 = np.sum(a * a)
        m2_long = lam**2 * t**2 + (4 * lam * mu / 3) * t**2 + (4 * mu**2 / 15) * (t**2 + 2 * s2)
        m2_shear = (4 * mu**2 / 15) * (3 * s2 - t**2)
        pref = np.float64(inclusion.volume) ** 2 * np.float64(mode.omega0) ** 3 / (2 * np.pi * CONSTANTS.hbar * rho)
        gamma_l = pref * m2_long / v_l**5
        gamma_t = pref * m2_shear / v_t**5
        rates = np.array([gamma_t / 2, gamma_t / 2, gamma_l])
    diag = QuadratureDiagnostics(n_theta=0, n_phi=0, rel_error=0.0, converged=True)
    return RadiationResult(mode.omega0, rates, regime_label(mode.omega0, [inclusion], substrate), diag)


ORACLE_RTOL = 2e-2  # relative deviation up to which mie_rate agrees with brute_force_rate


@cache
def _oracle_grid() -> tuple[np.ndarray, np.ndarray]:
    """The oracle's 129x96 grid, Simpson over theta and uniform over phi, as
    read-only (3, N) direction rows and (N,) weights, built once."""
    theta = np.linspace(0.0, np.pi, _BRUTE_THETA)
    st = np.sin(theta)
    w_theta = _simpson_weights(_BRUTE_THETA) * (np.pi / (_BRUTE_THETA - 1))
    return _product_grid(np.cos(theta), st, w_theta * st, _BRUTE_PHI)


def _oracle_table(substrate: MaterialSpec) -> AngularTable:
    """The brute-force oracle's substrate on its own grid (``_oracle_grid``):
    a distinct family from the engine's Gauss-Legendre rule on purpose.  It
    shares the ``AngularTable`` container and its memo (key
    (rho, C, "oracle"), about 2.8 MB per substrate beside the grid's 0.4 MB)
    with the engine, and the table build's ``_spans``, not the engine's
    stress kernel: per span, ``christoffel_many`` and the einsum
    ``stress_pattern`` of each branch, written into the table's arrays as
    they come (tau is symmetric bit for bit).
    """

    def build():
        khats, weights = _oracle_grid()
        n = weights.size
        velocities = np.empty((3, n))
        stresses = np.empty((3, n, 3, 3))
        for a, b in _spans(n):
            # einsum on a strided (span, 3) view of the rows rounds some stresses differently
            nodes = np.ascontiguousarray(khats[:, a:b].T)
            vels, pols = christoffel_many(substrate, nodes)
            velocities[:, a:b] = vels.T
            for q in range(3):
                stresses[q, a:b] = stress_pattern(substrate.stiffness_tensor, nodes, pols[:, :, q])
        return AngularTable(khats, weights, velocities, stresses)

    return _memo_table(substrate, ("oracle",), build)


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

    The substrate is solved once per process (``_oracle_table``), so each
    call pays only the radial loop, which reads the table's rows and each
    branch's stresses as they are stored.  The loop writes k, k^2, the sinc
    argument and column, one form-factor column per distinct dimension
    triple and the integrand's tail into (N,) buffers made once per call,
    each product on the operands and in the order of the plain per-node
    expression, so the rate is that expression's bit for bit.  Its sources
    have ``part`` None, so a pair takes the kernel's general sum, a cosine
    and a sine per copy and node, not the engine's one-part rule.  A
    non-finite total raises NumericFailure.
    """
    incs = _as_inclusion_list(inclusions)
    omega0 = mode.omega0
    sigma = omega0 / 200.0
    hbar = CONSTANTS.hbar
    rho = substrate.rho
    table = _oracle_table(substrate)
    khats, w_ang = table.khats, table.weights

    xi = np.linspace(-_BRUTE_WINDOW, _BRUTE_WINDOW, _BRUTE_RADIAL)
    w_xi = _simpson_weights(_BRUTE_RADIAL) * (2 * _BRUTE_WINDOW / (_BRUTE_RADIAL - 1))
    gauss = np.exp(-0.5 * xi * xi) / (sigma * np.sqrt(2 * np.pi))

    golden = (2 * np.pi / hbar**2) * (1 / (8 * np.pi**3))  # golden rule times f_3D

    total = 0.0
    k, k_sq, arg, col, tail = (np.empty(w_ang.size) for _ in range(5))
    with np.errstate(all="ignore"):  # as in mie_rate; the gate below refuses what overflows
        src = _sources(mode, incs)._replace(part=None)
        by_dims = {L.tobytes(): (L, np.empty(w_ang.size)) for L in src.dims}
        ff = [by_dims[L.tobytes()][1] for L in src.dims]  # inclusions of one shape share a column
        for q in range(3):
            v = table.velocities[q]
            tau = table.stresses[q]
            vm = [vol * np.einsum("nij,ij->n", tau, s) for vol, s in zip(src.volume, src.strain)]
            dk = sigma / v  # measure: k^2 dk dOmega with dk = (sigma/v) dxi
            for i in range(xi.size):
                omega = omega0 + sigma * xi[i]
                np.divide(omega, v, out=k)
                np.multiply(k, k, out=k_sq)
                u0_sq = hbar / (2 * rho * omega)
                kvec = None if src.centred else _wave_vectors(k, khats)
                for L, f in by_dims.values():  # f = (sinc_x * sinc_y) * sinc_z
                    for a in range(3):
                        np.multiply(k, khats[a], out=arg)
                        arg *= L[a] / 2.0
                        _sinc(arg, out=col if a else f)
                        if a:
                            f *= col
                p = _coherent_power(src, vm, ff, kvec)
                np.multiply(k_sq, u0_sq, out=tail)
                tail *= p  # |h g|^2
                tail *= golden
                tail *= gauss[i]
                np.multiply(w_ang, k_sq, out=p)  # the kernel's array is free again
                p *= dk
                p *= tail
                total += w_xi[i] * float(np.add.reduce(p))
    if not np.isfinite(total):
        raise NumericFailure(f"non-finite brute-force rate: {total}")
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
    one set of sweep tables, so a height point computes only its x and y
    sinc columns and a thickness point only its z column, while the coupling
    is computed once per sweep per grid; along omega0 everything but the
    angular table changes at every point.
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
) -> tuple[float, float] | None:
    """Dimensionless constants (shear, longitudinal) obtained by inverting the
    closed form ``Gamma_q = CG_q (V^2 / V_E) 4 pi omega0^4 / v_q^3`` (isotropic
    substrates).  Shear sums the two shear branches, the only meaningful shear
    value (``RadiationResult``).  None for a zero rate, or when V^2 omega0^4 or
    the constant leaves the float range.  Diagnostic only; no rate is ever
    computed from it.
    """
    lam, mu = substrate.lame()
    if result.total_rate == 0:
        return None
    rates = np.array([result.branch_rates[0] + result.branch_rates[1], result.branch_rates[2]])
    v = np.sqrt(np.array([mu, lam + 2 * mu]) / substrate.rho)
    with np.errstate(all="ignore"):
        scale = 4 * np.pi * np.float64(inclusion.volume) ** 2 * np.float64(mode.omega0) ** 4
        cg = rates * mode.mode_volume * v**3 / scale
    return (float(cg[0]), float(cg[1])) if 0 < scale < np.inf and np.all(np.isfinite(cg)) else None
