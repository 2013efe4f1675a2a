import math

import numpy as np
import pytest

from biwind import core, integrate, manifold, profile, regions

HALF_PI = 0.5 * math.pi


@pytest.fixture(scope="module")
def winding():
    return profile.build_winding_profile()


@pytest.fixture(scope="module")
def heteroclinic_profile():
    theta_star, _ = manifold.find_heteroclinic(theta_tol=2.3e-16)
    traj = integrate.integrate(
        5,
        manifold.seed_state(manifold.SeedSpec(1e-3, theta_star)),
        cfg=integrate.IntegrationConfig(max_span=14.0),
    )
    return traj, profile.to_radial(traj)


def test_zero_trajectory_pulls_back_to_zero():
    traj = integrate.integrate(
        5, (0.0, 0.0, 0.0, 0.0), cfg=integrate.IntegrationConfig(max_span=2.0)
    )
    prof = profile.to_radial(traj)
    assert float(prof.r[-1]) == 1.0
    assert np.all(prof.psi == 0.0)
    assert np.all(prof.dpsi == 0.0)
    assert np.all(prof.d2psi == 0.0)
    assert prof.origin_gap() == 0.0
    assert "d=5" in prof.meta


def test_chain_rule_matches_finite_differences(heteroclinic_profile):
    traj, prof = heteroclinic_profile
    shift = float(traj.s[-1])
    for k in np.linspace(40, len(prof.r) - 5, 6).astype(int):
        r = float(prof.r[k])
        h = 1e-4 * r
        plus = integrate.sample_at(traj, shift + math.log(r + h))
        minus = integrate.sample_at(traj, shift + math.log(r - h))
        fd_dpsi = (plus.phi - minus.phi) / (2.0 * h)
        fd_d2psi = (plus.dphi / (r + h) - minus.dphi / (r - h)) / (2.0 * h)
        scale = max(1.0, abs(float(prof.d2psi[k])))
        assert abs(fd_dpsi - float(prof.dpsi[k])) < 1e-4 * max(1.0, abs(prof.dpsi[k]))
        assert abs(fd_d2psi - float(prof.d2psi[k])) < 1e-4 * scale


def test_custom_shift_and_empty_overlap():
    traj = integrate.integrate(
        5, (0.0, 0.0, 0.0, 0.0), cfg=integrate.IntegrationConfig(max_span=2.0)
    )
    prof = profile.to_radial(traj, shift=1.0)
    assert float(prof.r[-1]) <= 1.0
    assert len(prof.r) < len(traj.s)
    with pytest.raises(ValueError):
        profile.to_radial(traj, shift=-1.0)
    with pytest.raises(ValueError):
        profile.to_radial(traj, shift=float("nan"))


def test_radial_profile_validation():
    one = np.array([0.5])
    with pytest.raises(ValueError):
        profile.RadialProfile(
            r=np.array([0.5, 0.4]), psi=np.zeros(2), dpsi=np.zeros(2),
            d2psi=np.zeros(2), d3psi=np.zeros(2), d4psi=np.zeros(2),
        )
    with pytest.raises(ValueError):
        profile.RadialProfile(
            r=np.array([0.0, 0.5]), psi=np.zeros(2), dpsi=np.zeros(2),
            d2psi=np.zeros(2), d3psi=np.zeros(2), d4psi=np.zeros(2),
        )
    with pytest.raises(ValueError):
        profile.RadialProfile(
            r=one, psi=np.zeros(2), dpsi=one, d2psi=one, d3psi=one, d4psi=one
        )
    with pytest.raises(ValueError):
        profile.RadialProfile(
            r=np.array([]), psi=np.array([]), dpsi=np.array([]),
            d2psi=np.array([]), d3psi=np.array([]), d4psi=np.array([]),
        )


def test_heteroclinic_profile_shape(heteroclinic_profile):
    _, prof = heteroclinic_profile
    # r = 1 side sits next to the target angle pi/2
    assert abs(float(prof.psi[-1]) - HALF_PI) < 0.02
    spiral = prof.r >= 0.1
    assert np.max(np.abs(prof.psi[spiral] - HALF_PI)) < 0.1
    # strictly monotone until the damped spiral around pi/2 begins
    rising = prof.r[:-1] < 5e-3
    assert np.all(np.diff(prof.psi)[rising] > 0.0)
    # linear growth psi ~ psi'(0) r at the origin side
    c = float(prof.dpsi[0])
    assert abs(float(prof.psi[0]) / (c * float(prof.r[0])) - 1.0) < 1e-3
    decade = prof.r <= prof.r[0] * 10.0
    slope = np.polyfit(np.log(prof.r[decade]), np.log(prof.psi[decade]), 1)[0]
    assert 0.97 < slope < 1.03


def test_second_derivative_vanishes_like_r(heteroclinic_profile):
    _, prof = heteroclinic_profile
    decade = prof.r <= prof.r[0] * 10.0
    slope = np.polyfit(
        np.log(prof.r[decade]), np.log(np.abs(prof.d2psi[decade])), 1
    )[0]
    assert slope >= 0.9


def test_laplacian_of_zero_profile_vanishes():
    traj = integrate.integrate(
        5, (0.0, 0.0, 0.0, 0.0), cfg=integrate.IntegrationConfig(max_span=2.0)
    )
    prof = profile.to_radial(traj)
    for r in (float(prof.r[0]), 0.5, 1.0):
        l0, l1 = profile.laplacian_components(5, prof, r)
        assert l0 == 0.0
        assert l1 == 0.0


def test_laplacian_of_linear_profile_stays_finite():
    c = 2.0
    r = np.geomspace(1e-6, 1e-2, 200)
    prof = profile.RadialProfile(
        r=r, psi=c * r, dpsi=np.full_like(r, c), d2psi=np.zeros_like(r),
        d3psi=np.zeros_like(r), d4psi=np.zeros_like(r),
    )
    values = [profile.laplacian_components(5, prof, float(x))[0] for x in r]
    # the 1/r and 1/r^2 singular contributions cancel, leaving O(c^3 r)
    assert abs(values[0]) < 1e-4
    assert max(abs(v) for v in values) < 15.0 * c**3 * float(r[-1])


def test_laplacian_validation(winding):
    _, prof, _ = winding
    with pytest.raises(ValueError):
        profile.laplacian_components(4, prof, 0.5)
    with pytest.raises(ValueError):
        profile.laplacian_components(5, prof, float(prof.r[0]) / 2.0)
    with pytest.raises(ValueError):
        profile.laplacian_components(5, prof, 1.5)


def test_laplacian_bounded_on_heteroclinic(heteroclinic_profile):
    _, prof = heteroclinic_profile
    values = np.array(
        [profile.laplacian_components(5, prof, float(r)) for r in prof.r]
    )
    assert np.all(np.isfinite(values))
    peak = float(np.max(np.abs(values)))
    assert peak < 1e7
    # stability toward the origin: the first component vanishes with r and
    # the second settles on a constant close to -d * psi'(0)^2
    tiny = prof.r < 1e-4
    l0_tiny = np.abs(values[tiny, 0])
    l1_tiny = np.abs(values[tiny, 1])
    assert float(l0_tiny[0]) < 1e-2 * float(np.max(np.abs(values[:, 0])))
    assert float(l1_tiny.max() / l1_tiny.min()) < 1.05
    limit = 5.0 * float(prof.dpsi[0]) ** 2
    assert float(l1_tiny[0]) == pytest.approx(limit, rel=0.05)


def test_radial_residual_transfer(winding, heteroclinic_profile):
    for prof in (winding[1], heteroclinic_profile[1]):
        worst = 0.0
        for k in range(len(prof.r)):
            r = float(prof.r[k])
            if r < 1e-4:
                continue
            jet = (
                prof.psi[k], prof.dpsi[k], prof.d2psi[k],
                prof.d3psi[k], prof.d4psi[k],
            )
            worst = max(worst, abs(core.psi_residual(5, r, jet)))
        assert worst < 1e-6


def test_winding_defaults(winding):
    traj, prof, rep = winding
    assert traj.termination.kind is integrate.TerminationKind.BLOWUP_DETECTED
    assert rep.winding_count == len(rep.crossings) == 1
    assert 0.0 < rep.crossings[0] < float(traj.s[-1])
    assert rep.s_f_estimate > float(traj.s[-1])
    assert prof.origin_gap() < 1e-3
    assert float(prof.r[-1]) == 1.0
    assert rep.eps0 == 1e-3
    assert rep.theta == pytest.approx(manifold.theta0(1e-3) + 0.2)


def test_rescaled_variables_approach_their_limits(winding):
    traj, _, _ = winding
    diag = profile.blowup_diagnostics(traj)
    assert diag.r_squared > 0.999
    assert diag.s_f_estimate > float(traj.s[-1])
    assert abs(float(diag.v1[-1]) - 2.0 ** (-1.0 / 3.0)) < 5e-3
    assert abs(float(diag.v2[-1]) - 2.0 ** (-2.0 / 3.0)) < 5e-3
    assert abs(float(diag.zeta[-1]) - 2.0 ** (-1.0 / 3.0)) < 5e-3
    tail = diag.lam >= float(diag.lam[-1]) / 10.0
    assert float(diag.v1[tail].min()) > 0.0
    assert float(diag.v2[tail].min()) > 0.0
    assert float(diag.v1[tail].max() / diag.v1[tail].min()) < 1.5
    assert float(diag.v2[tail].max() / diag.v2[tail].min()) < 1.5


def test_larger_blowup_norm_extends_the_same_orbit(winding):
    _, _, rep8 = winding
    _, _, rep10 = profile.build_winding_profile(
        cfg=integrate.IntegrationConfig(blowup_norm=1e10)
    )
    assert rep10.winding_count >= rep8.winding_count
    assert abs(rep10.s_f_estimate - rep8.s_f_estimate) < 0.01 * rep8.s_f_estimate
    assert rep10.crossings[: rep8.winding_count] == pytest.approx(
        rep8.crossings, abs=1e-6
    )


def test_crossing_gaps_shrink_near_blowup():
    _, _, rep = profile.build_winding_profile(
        cfg=integrate.IntegrationConfig(blowup_norm=1e14)
    )
    assert rep.winding_count >= 3
    cr = np.array(rep.crossings)
    assert np.all(np.diff(cr) > 0.0)
    gaps = np.diff(cr)
    assert np.all(np.diff(gaps) < 0.0)


def test_blowing_down_seed_is_reflected(winding):
    _, _, rep = winding
    _, _, refl = profile.build_winding_profile(
        seed_policy=profile.SeedPolicy(theta_offset=math.pi + 0.2)
    )
    assert refl.winding_count == rep.winding_count
    assert refl.crossings == pytest.approx(rep.crossings, abs=1e-6)


def test_seed_policy_guards():
    with pytest.raises(ValueError):
        profile.SeedPolicy(eps0=0.0)
    with pytest.raises(ValueError):
        profile.SeedPolicy(theta_offset=0.0)
    with pytest.raises(ValueError):
        profile.SeedPolicy(theta_offset=-0.1)
    # an offset that wraps back inside the trapping region is rejected
    with pytest.raises(ValueError):
        profile.build_winding_profile(
            seed_policy=profile.SeedPolicy(theta_offset=2.0 * math.pi - 0.1)
        )


def test_failure_to_blow_up_is_distinct():
    with pytest.raises(profile.WindingError):
        profile.build_winding_profile(cfg=integrate.IntegrationConfig(max_span=1.0))


def test_blowup_diagnostics_rejects_flat_tails():
    zero = integrate.integrate(
        5, (0.0, 0.0, 0.0, 0.0), cfg=integrate.IntegrationConfig(max_span=2.0)
    )
    with pytest.raises(ValueError):
        profile.blowup_diagnostics(zero)
    single = integrate.integrate(5, (0.0, 0.0, 0.0, 1e9))
    with pytest.raises(ValueError):
        profile.blowup_diagnostics(single)


def test_profile_csv_roundtrip(tmp_path, winding):
    _, prof, _ = winding
    path = tmp_path / "profile.csv"
    profile.write_profile_csv(prof, 5, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,psi,dpsi,d2psi,L0f0,L1f1"
    assert len(lines) == len(prof.r) + 1
    mid = len(prof.r) // 2
    row = lines[mid + 1].split(",")
    r = float(row[0])
    assert r == float(prof.r[mid])
    assert float(row[1]) == float(prof.psi[mid])
    # every row, not only the middle one, holds the components at its radius
    for line, r in zip(lines[1:], prof.r):
        row = line.split(",")
        l0, l1 = profile.laplacian_components(5, prof, float(r))
        assert float(row[4]) == l0
        assert float(row[5]) == l1


def test_winding_report_json(winding):
    _, _, rep = winding
    blob = rep.to_json_dict()
    assert set(blob) == {"s_f_estimate", "crossings", "winding_count", "seed"}
    assert blob["winding_count"] == rep.winding_count
    assert blob["seed"] == {"eps0": rep.eps0, "theta": rep.theta}
