"""Built-in consistency checks runnable from the command line.

Each check exercises one equivalence the engine is built on: the closed-form
point-scatterer limit against the quadrature engine, the quadrature engine
against a brute-force broadened-delta sum, the cubic frequency scaling of the
quality factor, losslessness of the mirror transfer matrix, the interference
limits of an antiparallel pair, and mode-volume invariance of the figure of
merit.  The rates come from the paths the command line runs, so each
converges or raises NumericFailure.  All checks run in seconds; they are
smoke tests, not the full test suite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .coupling import Inclusion, MicrowaveMode, default_eps_eff
from .materials import Orientation, default_materials
from .mitigation import BraggStack, bragg_transmission, dual_waveguide_rate
from .radiation import ORACLE_RTOL, QuadratureSpec, brute_force_rate, rayleigh_rate, refined_rate, sweep
from .transducer import EoModel, figure_of_merit

# Crystal X along the film normal, crystal Z in the film plane (along -x lab).
_X_CUT = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fixtures():
    db = default_materials()
    substrate = db["sapphire_iso"]
    mode = MicrowaveMode(
        omega0=2 * np.pi * 1e9,
        mode_volume=8e-15,
        field_direction=[0.0, 1.0, 0.0],
        eps_eff=default_eps_eff(substrate),
    )
    cube = Inclusion(
        dimensions=np.full(3, 10e-9),
        center=np.zeros(3),
        material=db["lithium_niobate"],
        orientation=Orientation(_X_CUT),
    )
    return db, substrate, mode, cube


def _check_rayleigh_vs_mie(g_mie, substrate, mode, cube) -> CheckResult:
    g_ray = rayleigh_rate(mode, cube, substrate).total_rate
    rel = abs(g_mie - g_ray) / g_ray
    return CheckResult(
        "closed-form point-scatterer limit vs quadrature engine",
        rel < 1e-2,
        f"relative deviation {rel:.2e} (tolerance 1e-02)",
    )


def _check_brute_force(g_mie, substrate, mode, cube) -> CheckResult:
    g_brute = brute_force_rate(mode, cube, substrate)
    rel = abs(g_mie - g_brute) / g_mie
    return CheckResult(
        "quadrature engine vs brute-force broadened-delta sum",
        rel < ORACLE_RTOL,
        f"relative deviation {rel:.2e} (tolerance {ORACLE_RTOL:.0e})",
    )


def _check_frequency_scaling(substrate, mode, cube) -> CheckResult:
    omegas = 2 * np.pi * np.geomspace(1e9, 10e9, 5)
    slope = sweep(mode, cube, substrate, "omega0", omegas, QuadratureSpec(32, 64)).loglog_slope()
    return CheckResult(
        "quality factor scales as frequency cubed",
        abs(slope + 3.0) < 0.05,
        f"log-log slope {slope:+.4f} (expected -3.00 +- 0.05)",
    )


def _check_mirror(db, substrate) -> CheckResult:
    fc = 11e9
    stack = BraggStack.quarter_wave(substrate, db["silicon"], db["sapphire"], fc, n_periods=3)
    worst = 0.0
    for f in np.linspace(0.25 * fc, 4 * fc, 41):
        r, t = bragg_transmission(stack, 2 * np.pi * f)
        worst = max(worst, abs(r + t - 1.0))
    r_c, _ = bragg_transmission(stack, 2 * np.pi * fc)
    z1, z2 = stack.period[0].impedance, stack.period[1].impedance
    x = (stack.z_out / stack.z_in) * (z1 / z2) ** (2 * stack.n_periods)
    r_analytic = ((1 - x) / (1 + x)) ** 2
    ok = worst < 1e-12 and abs(r_c - r_analytic) < 1e-12
    return CheckResult(
        "mirror losslessness and quarter-wave reflectance",
        ok,
        f"max |R+T-1| {worst:.1e}, |R - closed form| {abs(r_c - r_analytic):.1e} (tolerance 1e-12)",
    )


def _check_pair_limits(substrate, mode, cube) -> CheckResult:
    quad = QuadratureSpec(n_theta=16, n_phi=32)
    anti = dual_waveguide_rate(mode, cube, substrate, np.zeros(3), relative_sign=-1, quad=quad)
    para = dual_waveguide_rate(mode, cube, substrate, np.zeros(3), relative_sign=+1, quad=quad)
    ok = anti.pair.total_rate == 0.0 and abs(para.suppression_ratio - 2.0) < 1e-12
    return CheckResult(
        "antiparallel pair cancels exactly at zero separation",
        ok,
        f"opposite-sign rate {anti.pair.total_rate!r}, same-sign ratio {para.suppression_ratio:.12f}",
    )


def _check_eta_invariance(substrate, mode, cube) -> CheckResult:
    quad = QuadratureSpec(n_theta=16, n_phi=32)
    eo = EoModel(g0=2 * np.pi * 2e3, v_ref=8e-15, overlap=1.0)
    etas = []
    for scale in (1.0, 1e1, 1e3):
        m = dataclasses.replace(mode, mode_volume=mode.mode_volume * scale)
        etas.append(figure_of_merit(eo, m, refined_rate(m, cube, substrate, quad)))
    worst = max(abs(eta - etas[0]) / etas[0] for eta in etas[1:])
    return CheckResult(
        "figure of merit is mode-volume invariant",
        worst < 1e-9,
        f"relative drift {worst:.2e} across three decades of mode volume (tolerance 1e-9)",
    )


def run_all() -> list[CheckResult]:
    """Run every self-check and return the individual results."""
    db, substrate, mode, cube = _fixtures()
    g_mie = refined_rate(mode, cube, substrate, QuadratureSpec(32, 64)).total_rate
    return [
        _check_rayleigh_vs_mie(g_mie, substrate, mode, cube),
        _check_brute_force(g_mie, substrate, mode, cube),
        _check_frequency_scaling(substrate, mode, cube),
        _check_mirror(db, substrate),
        _check_pair_limits(substrate, mode, cube),
        _check_eta_invariance(substrate, mode, cube),
    ]
