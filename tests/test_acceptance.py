"""Acceptance scorecard: one test per numbered criterion.

Each test prints a single `[criterion NN] PASS/FAIL: ...` line carrying the
measured quantities before asserting them, so `pytest -v -s` doubles as a
human-readable report.

Criterion 06 takes its span-25 end state and its C samples from the
multiple-shooting refinement of the searched angle: deviations grow like
e^(2.499 s) at the equator, the searched theta* is ~5.5e-14 off (the RK45
tolerances, not rounding), and at theta_tol=1e-10 its single orbit blows up
near s = 12.2, while 25 unit segments joined by Newton's method stay by the
equator.  It runs in doubles, with mpmath blocked.  Criterion 08 asks for four
windings at blowup threshold 1e20: each winding costs e^(3 pi) in phi''',
so counts 2, 3, 4 and 5 begin near phi''' = 7e8, 9e12, 1.1e17 and 1.35e21,
and the default threshold 1e8 gives one winding.
"""

import math
import sys

import numpy as np
import pytest

from biwind import certify, cli, config, core, integrate, manifold, profile, regions
from biwind.certify import Status
from biwind.intervals import Box

SQRT6 = math.sqrt(6.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def certs_w1():
    return {tid: certify.run_task(tid, workers=1) for tid in certify.TASK_IDS}


# ---------------------------------------------------------------------------
# 1. Every task in certify.TASK_IDS proves at default widths, each under 5 minutes.


def test_criterion_01_certificates_all_proved(certs_w1):
    statuses = {tid: c.status for tid, c in certs_w1.items()}
    slowest = max(c.wall_ms for c in certs_w1.values())
    ok = (
        all(s is Status.PROVED for s in statuses.values()) and slowest < 300_000
    )
    report(
        1,
        ok,
        "statuses "
        + ", ".join(f"{tid}={s.value}" for tid, s in statuses.items())
        + f"; slowest task {slowest} ms (limit 300000)",
    )
    for tid in certify.TASK_IDS:
        assert statuses[tid] is Status.PROVED, f"{tid} did not prove"
        assert certs_w1[tid].wall_ms < 300_000
    # the targeted bounds appear in the certificate statements
    for tid in ("V2", "V3", "V5", "V6"):
        assert "0.01" in certs_w1[tid].target
    assert "0.5" in certs_w1["V8"].target
    assert "1.9" in certs_w1["V9"].target


# ---------------------------------------------------------------------------
# 2. Taylor coefficient enclosures are positive and track the reference
#    displays within 0.05 per endpoint.


def test_criterion_02_taylor_enclosures(certs_w1):
    refs = {
        "V4": {"phi0_cubed": (13.2121, 13.24), "phi_linear": (15.673, 15.6867)},
        "V5": {"phi0_cubed": (9.76536, 9.83056), "phi_linear": (21.2159, 21.4586)},
    }
    worst_dev = 0.0
    positive = True
    overlaps = True
    for tid, coeffs in refs.items():
        taylor = certs_w1[tid].details["taylor"]
        for name, (rlo, rhi) in coeffs.items():
            lo, hi = taylor[name]["decimal"]
            positive = positive and lo > 0.0
            overlaps = overlaps and lo < rhi and rlo < hi
            worst_dev = max(worst_dev, abs(lo - rlo), abs(hi - rhi))
    ok = positive and overlaps and worst_dev < 0.05
    report(
        2,
        ok,
        f"both enclosures positive={positive}, all intersect references="
        f"{overlaps}, worst endpoint deviation {worst_dev:.4f} (limit 0.05)",
    )
    assert positive
    assert overlaps
    assert worst_dev < 0.05


# ---------------------------------------------------------------------------
# 3. The sublevel set {c1 <= 0.01} of [0, 1]^2 lies inside the reference box
#    A = [0, 783/1024] x [779/1024, 1]: c1 > 0.01 on both boxes outside A.
#    A shrunk by 5/1024 in phi0 or in z must fail, so A is nearly tight.


def test_criterion_03_sublevel_enclosure(certs_w1):
    cert = certs_w1["V7"]
    contained = cert.details["contained_in_reference"]
    parts = certify._TASKS["V7"].parts
    trees = [check(region, cert.min_width, {}) for region, check in parts]
    check = parts[0][1]
    shrunk = {
        "phi0 <= 778/1024": [(778 / 1024, 1.0), (0.0, 1.0)],
        "z >= 784/1024": [(0.0, 1.0), (0.0, 784 / 1024)],
    }
    falsified = {name: check(Box.from_bounds(r), cert.min_width, {}) for name, r in shrunk.items()}
    ok = (
        cert.status is Status.PROVED
        and contained is True
        and all(t.status is Status.PROVED for t in trees)
        and all(f.status is Status.FAILED for f in falsified.values())
    )
    report(
        3,
        ok,
        f"c1 > 0.01 on [0, 1]^2 outside [0, 783/1024] x [779/1024, 1]: {cert.status.value}, "
        f"contained_in_reference={contained}; trees (boxes, depth) "
        + ", ".join(f"({t.boxes_examined}, {t.max_depth})" for t in trees)
        + "; A shrunk to "
        + ", ".join(
            f"{name}: {f.status.value} at {tuple(round(x, 5) for x in f.witness.center())}"
            for name, f in falsified.items()
        ),
    )
    assert cert.status is Status.PROVED
    assert contained is True
    assert all(t.status is Status.PROVED for t in trees)
    for f in falsified.values():
        assert f.status is Status.FAILED


# ---------------------------------------------------------------------------
# 4. Closed-form equilibrium constants and the even-parity eigensystem.


def test_criterion_04_closed_form_constants():
    refs = {5: 2.0 * SQRT6, 6: 3.0 * math.sqrt(5.0), 7: 36.0 / math.sqrt(13.0)}
    worst_c = max(abs(core.c_star(d) - refs[d]) for d in (5, 6, 7))
    worst_resid = 0.0
    spectra_ok = True
    for d in (5, 6, 7):
        lin = core.linearization(d, "even")
        spectra_ok = spectra_ok and sorted(lin.eigenvalues) == sorted(
            [3.0, 1.0, 1.0 - d, 3.0 - d]
        )
        matrix = np.asarray(lin.matrix, dtype=float)
        vectors = np.asarray(lin.eigenvectors, dtype=float)
        for j, lam in enumerate(lin.eigenvalues):
            resid = np.max(np.abs(matrix @ vectors[:, j] - lam * vectors[:, j]))
            worst_resid = max(worst_resid, float(resid))
    ok = worst_c < 1e-12 and spectra_ok and worst_resid < 1e-12
    report(
        4,
        ok,
        f"worst c* deviation {worst_c:.2e} (limit 1e-12); eigenvalues match "
        f"{{3, 1, 1-d, 3-d}}: {spectra_ok}; worst eigen-residual "
        f"{worst_resid:.2e} (limit 1e-12)",
    )
    assert worst_c < 1e-12
    assert spectra_ok
    assert worst_resid < 1e-12


# ---------------------------------------------------------------------------
# 5. Energy laws: conservation at d=4, monotonicity at d=5, and the analytic
#    dissipation rate against a finite difference.


def test_criterion_05_energy_laws():
    _, cons, _ = cli._run_energy(
        {"d": 4, "mode": "conservation", "orbits": 20, "seed": 5}, None
    )
    _, mono, _ = cli._run_energy(
        {"d": 5, "mode": "monotonicity", "orbits": 20, "seed": 5}, None
    )
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    checked = 0
    while checked < 1000:
        d = int(rng.integers(5, 8))
        x = rng.uniform(-1.0, 1.0, size=4)
        e = core.energy(d, x)
        if abs(e.rate) < 1e-3:
            continue
        f = core.vector_field(d, x)
        h = 1e-6
        fd = (core.energy(d, x + h * f).total - core.energy(d, x - h * f).total) / (
            2.0 * h
        )
        worst_rel = max(worst_rel, abs(fd - e.rate) / abs(e.rate))
        checked += 1
    ok = cons["worst"] < 1e-7 and mono["worst"] > -1e-8 and worst_rel < 1e-6
    report(
        5,
        ok,
        f"d=4 conservation defect {cons['worst']:.2e} (limit 1e-7); d=5 worst "
        f"increment {mono['worst']:.2e} (limit -1e-8); worst FD rate relative "
        f"error {worst_rel:.2e} over 1000 states (limit 1e-6)",
    )
    assert cons["worst"] < 1e-7
    assert mono["worst"] > -1e-8
    assert worst_rel < 1e-6


# ---------------------------------------------------------------------------
# 6. Shooting: bracket signs, a single sign change on a 200-point grid, and
#    the approach to (pi/2, 0, 0, 0) over span 25 of the connecting orbit,
#    refined by multiple shooting over unit segments.


def test_criterion_06_shooting(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # doubles only
    theta_b = manifold.theta0(config.EPS0)
    g_lo = manifold.classify_orbit(manifold.SeedSpec(config.EPS0, -math.pi / 2)).g
    g_hi = manifold.classify_orbit(manifold.SeedSpec(config.EPS0, theta_b + 0.05)).g
    grid = manifold.classification_grid(
        np.linspace(-math.pi / 2, theta_b, 200), workers=4
    )
    gs = [r.g for r in grid]
    decided = all(g in (-1, 1) for g in gs)
    changes = sum(1 for a, b in zip(gs, gs[1:]) if a * b < 0)
    theta_star, _, _ = manifold.find_heteroclinic(theta_tol=1e-10)
    # no single orbit from a double seed stays by the saddle for 25 units of
    # arclength; 25 unit segments joined by multiple shooting do
    theta_refined, segments = manifold.refine_heteroclinic(theta_star)
    s = np.concatenate([seg.s for seg in segments])
    states = np.concatenate([seg.states for seg in segments])
    target = np.array([math.pi / 2, 0.0, 0.0, 0.0])
    end_dist = float(np.linalg.norm(states[-1] - target))
    outside = [
        float(s[i])
        for i in range(len(states))
        if regions.in_region_C(states[i, 0], states[i, 2]) is regions.Membership.OUTSIDE
    ]
    ok = (
        g_lo == -1
        and g_hi == 1
        and decided
        and changes == 1
        and end_dist <= 1e-3
        and not outside
    )
    report(
        6,
        ok,
        f"g(-pi/2)={g_lo}, g(theta0+0.05)={g_hi}; sign changes on 200-point "
        f"grid: {changes}; theta*={theta_star!r} refined to {theta_refined}; end "
        f"distance at span 25: {end_dist:.3e} (limit 1e-3); samples leaving "
        f"C: {len(outside)}"
        + (f", first at s={outside[0]:.2f}" if outside else ""),
    )
    assert g_lo == -1
    assert g_hi == 1
    assert decided
    assert changes == 1
    assert end_dist <= 1e-3, (
        f"end distance {end_dist:.3e} at s={s[-1]:.2f} exceeds 1e-3: "
        f"deviations from the connecting orbit grow like e^(2.499 s) at the "
        f"equator while the stable spiral contracts like e^(-0.5 s), so the "
        f"segments' end must lie on the equator's stable manifold; the double "
        f"theta* is ~5.5e-14 off (the tolerances of its RK45 runs, not "
        f"rounding) and at theta_tol=1e-10 its orbit blows up near s=12.2; the "
        f"segments refined to {theta_refined!r} fall short"
    )
    assert not outside, (
        f"(phi, phi'') leaves the invariant region at s={outside[0]:.2f}: "
        f"the segments refined to {theta_refined!r} do not follow the connecting "
        f"orbit (deviations grow like e^(2.499 s))"
    )


# ---------------------------------------------------------------------------
# 7. Blowup classifier: 100 random supercritical starts all blow up with
#    phi''' positive throughout, graded component growth, and a clean
#    1/lambda linear fit.


def test_criterion_07_blowup_classifier():
    rng = np.random.default_rng(11)
    norm = config.BLOWUP_NORM
    thresholds = [norm ** (k / 4.0) for k in range(4)]
    min_components = np.full(4, np.inf)
    worst_r2 = 1.0
    all_blowup = True
    all_positive = True
    for _ in range(100):
        d = int(rng.choice([5, 6, 7]))
        cs = core.c_star(d)
        x0 = np.array(
            [
                rng.uniform(0.0, math.pi / 2),
                rng.uniform(1e-9, 2.0),
                rng.uniform(cs, cs + 3.0),
                rng.uniform(0.0, 5.0),
            ]
        )
        traj = integrate.integrate(d, x0)
        all_blowup = all_blowup and (
            traj.termination.kind is integrate.TerminationKind.BLOWUP_DETECTED
        )
        states = np.asarray(traj.states, dtype=float)
        all_positive = all_positive and bool(np.all(states[:, 3] > 0.0))
        min_components = np.minimum(min_components, np.abs(states[-1]))
        worst_r2 = min(worst_r2, profile.blowup_diagnostics(traj).r_squared)
    graded = all(min_components[k] > thresholds[k] for k in range(4))
    ok = all_blowup and all_positive and graded and worst_r2 > 0.999
    report(
        7,
        ok,
        f"100/100 blowups: {all_blowup}; phi''' > 0 throughout: {all_positive}; "
        f"smallest terminal components {[f'{v:.3g}' for v in min_components]} vs "
        f"graded thresholds {[f'{t:.3g}' for t in thresholds]}; worst 1/lambda "
        f"fit R^2 {worst_r2:.10f} (limit 0.999)",
    )
    assert all_blowup
    assert all_positive
    assert graded
    assert worst_r2 > 0.999


# ---------------------------------------------------------------------------
# 8. Winding profile: vanishing at the origin, ordered crossings, and count
#    growth with the blowup threshold, to four windings by 1e20.


def test_criterion_08_winding_profile():
    _, prof8, rep8 = profile.build_winding_profile()
    psi_origin = abs(float(prof8.psi[0]))
    crossings = list(rep8.crossings)
    strictly_increasing = all(b > a for a, b in zip(crossings, crossings[1:]))
    cfg10 = integrate.IntegrationConfig(blowup_norm=1e10)
    _, _, rep10 = profile.build_winding_profile(cfg=cfg10)
    nondecreasing = rep10.winding_count >= rep8.winding_count
    cfg20 = integrate.IntegrationConfig(blowup_norm=1e20)
    _, _, rep20 = profile.build_winding_profile(cfg=cfg20)
    ok = (
        psi_origin < 1e-3
        and strictly_increasing
        and nondecreasing
        and rep20.winding_count >= 4
    )
    report(
        8,
        ok,
        f"psi at smallest r: {psi_origin:.2e} (limit 1e-3); crossings "
        f"{[f'{c:.4f}' for c in crossings]} strictly increasing: "
        f"{strictly_increasing}; count {rep8.winding_count} at 1e8 -> "
        f"{rep10.winding_count} at 1e10 (non-decreasing: {nondecreasing}); "
        f"count {rep20.winding_count} at 1e20 (need >= 4)",
    )
    assert psi_origin < 1e-3
    assert strictly_increasing
    assert nondecreasing
    assert rep20.winding_count >= 4, (
        f"winding_count is {rep20.winding_count} at blowup_norm 1e20 "
        f"({rep8.winding_count} at 1e8, {rep10.winding_count} at 1e10): "
        f"v1 -> 2^(-1/3) and zeta -> 2^(-1/3) give phi = ln(lambda) + c with "
        f"lambda = phi'''^(1/3), so each winding costs e^(3 pi) ~ 1.24e4 in "
        f"phi''' and the fourth begins near phi''' ~ 1.1e17; at 1e20 the law "
        f"puts phi near 14.84, 2.27 rad past 4 pi"
    )


# ---------------------------------------------------------------------------
# 9. Consistency oracles: substitution residuals, radial pullback residual,
#    and the sum-of-squares identity.


def test_criterion_09_consistency_oracles():
    rng = np.random.default_rng(13)
    cfg = integrate.IntegrationConfig(max_span=5.0, blowup_norm=1e6)
    worst_w = 0.0
    worst_xi = 0.0
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5, size=4)
        traj = integrate.integrate(5, x0, cfg=cfg)
        for phi0 in rng.uniform(0.0, math.pi / 2, size=3):
            worst_w = max(worst_w, regions.w_system_residual(float(phi0), traj))
        worst_xi = max(worst_xi, regions.xi_system_residual(traj))
    radial_traj = integrate.integrate(
        5,
        np.array([0.3, 0.2, -0.1, 0.1]),
        cfg=integrate.IntegrationConfig(max_span=9.5, blowup_norm=1e6),
    )
    prof = profile.to_radial(radial_traj)
    worst_psi = 0.0
    for i in range(len(prof.r)):
        if prof.r[i] < 1e-4:
            continue
        jet = (prof.psi[i], prof.dpsi[i], prof.d2psi[i], prof.d3psi[i], prof.d4psi[i])
        worst_psi = max(worst_psi, abs(core.psi_residual(5, float(prof.r[i]), jet)))
    ys = rng.uniform(-5.0, 5.0, size=10_000)
    vs = rng.uniform(-5.0, 5.0, size=10_000)
    worst_sos = 0.0
    for y, v in zip(ys, vs):
        lhs, rhs = regions.sos_identity_check(float(y), float(v))
        worst_sos = max(worst_sos, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    ok = (
        worst_w < 1e-8
        and worst_xi < 1e-8
        and worst_psi < 1e-6
        and worst_sos <= 1e-12
    )
    report(
        9,
        ok,
        f"w-system residual {worst_w:.2e}, xi-system residual {worst_xi:.2e} "
        f"(limits 1e-8); radial pullback residual {worst_psi:.2e} for r >= 1e-4 "
        f"(limit 1e-6); sum-of-squares defect {worst_sos:.2e} at 10^4 points "
        f"(limit 1e-12)",
    )
    assert worst_w < 1e-8
    assert worst_xi < 1e-8
    assert worst_psi < 1e-6
    assert worst_sos <= 1e-12


# ---------------------------------------------------------------------------
# 10. Determinism across 1, 4, and 16 worker threads.


def test_criterion_10_determinism(certs_w1):
    cert_mismatches = []
    for workers in (4, 16):
        for tid in certify.TASK_IDS:
            fresh = certify.run_task(tid, workers=workers).to_json_dict()
            base = certs_w1[tid].to_json_dict()
            fresh.pop("wall_ms")
            base.pop("wall_ms")
            if fresh != base:
                cert_mismatches.append((tid, workers))
    thetas = np.linspace(0.5, 1.2, 15)
    base_grid = manifold.classification_grid(thetas, workers=1)
    grid_mismatches = []
    for workers in (4, 16):
        other = manifold.classification_grid(thetas, workers=workers)
        for r1, r2 in zip(base_grid, other):
            same = (
                r1.theta == r2.theta
                and r1.outcome is r2.outcome
                and r1.g == r2.g
                and r1.tau == r2.tau
                and np.array_equal(
                    r1.end_state.as_array(), r2.end_state.as_array()
                )
            )
            if not same:
                grid_mismatches.append((r1.theta, workers))
    ok = not cert_mismatches and not grid_mismatches
    report(
        10,
        ok,
        f"certificates bit-identical over workers 1/4/16: "
        f"{not cert_mismatches}; classification grid bit-identical: "
        f"{not grid_mismatches}",
    )
    assert not cert_mismatches
    assert not grid_mismatches
