import math

import numpy as np
import pytest

from biwind import config, core, integrate, manifold, regions


# Independent transcriptions of the dimension-specialized right-hand sides,
# written directly from the scalar equation rather than the coefficient
# helpers, so they can serve as oracles for vector_field.

def _rhs_d5(phi, v, y, w):
    return (
        (4 * math.cos(2 * phi) + 9) * y
        - 12 * math.sin(2 * phi)
        + (6 * y - 4 * math.sin(2 * phi)) * v * v
        + (4 * math.cos(2 * phi) + 10) * v
        + 2 * v ** 3
        - 2 * w
    )


def _rhs_d6(phi, v, y, w):
    return (
        (5 * math.cos(2 * phi) + 9) * y
        - 22.5 * math.sin(2 * phi)
        + (6 * y - 5 * math.sin(2 * phi)) * v * v
        + 2 * (5 * math.cos(2 * phi) + 13) * v
        + 4 * v ** 3
        - 4 * w
    )


def _rhs_d7(phi, v, y, w):
    return (
        (6 * math.cos(2 * phi) + 7) * y
        - 36 * math.sin(2 * phi)
        + (6 * y - 6 * math.sin(2 * phi)) * v * v
        + 3 * (6 * math.cos(2 * phi) + 16) * v
        + 6 * v ** 3
        - 6 * w
    )


_ORACLES = {5: _rhs_d5, 6: _rhs_d6, 7: _rhs_d7}


@pytest.mark.parametrize("d", [5, 6, 7])
def test_vector_field_matches_independent_transcription(d):
    rng = np.random.default_rng(20260815 + d)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, size=4)
        got = core.vector_field(d, x)
        assert got[0] == x[1] and got[1] == x[2] and got[2] == x[3]
        want = _ORACLES[d](*x)
        assert got[3] == pytest.approx(want, rel=1e-14, abs=1e-13)


def test_vector_field_accepts_state_objects():
    s = core.state(0.3, -0.1, 0.7, 2.0)
    assert np.array_equal(core.vector_field(5, s), core.vector_field(5, s.as_array()))


def test_coefficients_at_zero_and_derivative_consistency():
    # q(0) = d1 + k collapses to -(d-12)d - 22 and g(0) = (d1 + gk)/2 to 2d - 3;
    # f(0) = 0 zeroes the field at the origin and F(0) = 0 the potential.
    for d in range(3, 11):
        d1, k, _, gk, _ = core._field_constants(d)
        assert d1 + k == -(d - 12) * d - 22
        assert (d1 + gk) / 2 == 2 * d - 3
        assert core.vector_field(d, [0.0, 0.0, 0.0, 0.0])[3] == 0.0
        assert core.energy(d, [0.0, 0.0, 0.0, 0.0]).potential == 0.0
    # F' = f and q' = 2 (q'/2 of p_value), via central differences.  At
    # (phi, 0, 0, 0) the energy's potential is F and the field's fourth
    # derivative is -f; the field's q is its coefficient of phi'', and at
    # xi2 = 0 the part of p_value even in xi1 is (q'/2) xi1^2 - f.
    F = lambda d, p: core.energy(d, [p, 0.0, 0.0, 0.0]).potential
    f = lambda d, p: -core.vector_field(d, [p, 0.0, 0.0, 0.0])[3]
    q = lambda d, p: core.vector_field(d, [p, 0.0, 1.0, 0.0])[3] + f(d, p)
    pv = lambda d, p, xi1: regions.p_value(d, p, xi1, 0.0)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        d = int(rng.integers(3, 11))
        p = rng.uniform(-4, 4)
        dF = (F(d, p + h) - F(d, p - h)) / (2 * h)
        assert dF == pytest.approx(f(d, p), rel=1e-8, abs=1e-7)
        dq = (q(d, p + h) - q(d, p - h)) / (2 * h)
        half_qp = (pv(d, p, 1.0) + pv(d, p, -1.0)) / 2 - pv(d, p, 0.0)
        assert dq == pytest.approx(2 * half_qp, rel=1e-8, abs=1e-7)


def test_reversed_field_example_and_conjugacy():
    # At (0, 0, 1, 0) with d = 5 the reversed field is (0, 1, 0, 13):
    # the curvature feeds the third slot of the forward jet and q(0) = 13.
    got = core._make_rhs(5, reverse=True)(0.0, [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(got, [0.0, 1.0, 0.0, 13.0], atol=0.0)

    # reversed(x) == -J forward(J x) with J = diag(1,-1,1,-1), bit for bit:
    # J only flips signs, and the odd terms flip with it.
    J = core.REVERSAL_SIGNS
    rng = np.random.default_rng(11)
    for d in (4, 5, 6, 7):
        rev = core._make_rhs(d, reverse=True)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=4)
            assert np.array_equal(rev(0.0, x), -J * core.vector_field(d, J * x))


def test_reversed_field_equals_forward_at_d4_even_symmetric_points():
    # With d = 4 every odd-derivative forcing term carries a (d-4) factor,
    # so forward and reversed fields agree identically.
    rng = np.random.default_rng(12)
    rev = core._make_rhs(4, reverse=True)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=4)
        assert np.array_equal(core.vector_field(4, x), rev(0.0, x))


def _explicit_d4_jet(s):
    # phi(s) = 2 arctan(e^s) solves the d = 4 equation with zero energy.
    sech = 1.0 / math.cosh(s)
    th = math.tanh(s)
    return np.array(
        [2.0 * math.atan(math.exp(s)), sech, -sech * th, sech * (th * th - sech * sech)]
    )


def test_energy_zero_along_explicit_d4_connection():
    for s in np.linspace(-4, 4, 41):
        x = _explicit_d4_jet(s)
        e = core.energy(4, x)
        assert e.total == e.kinetic + e.potential
        assert abs(e.total) < 1e-13
        assert e.rate == 0.0


def test_explicit_d4_jet_satisfies_field():
    # Fourth derivative of 2 arctan(e^s), worked out by hand.
    for s in np.linspace(-3, 3, 25):
        sech = 1.0 / math.cosh(s)
        th = math.tanh(s)
        d4 = -sech * th * (th * th - sech * sech) + 4.0 * sech ** 3 * th
        got = core.vector_field(4, _explicit_d4_jet(s))
        assert got[3] == pytest.approx(d4, rel=1e-12, abs=1e-12)


def test_energy_rate_is_directional_derivative():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 300:
        d = int(rng.integers(4, 8))
        x = rng.uniform(-1.0, 1.0, size=4)
        e = core.energy(d, x)
        if d > 4 and abs(e.rate) < 1e-3:
            continue
        f = core.vector_field(d, x)
        h = 1e-6
        ep = core.energy(d, x + h * f).total
        em = core.energy(d, x - h * f).total
        fd = (ep - em) / (2 * h)
        if d == 4:
            assert abs(fd) < 1e-7
        else:
            assert fd == pytest.approx(e.rate, rel=1e-6)
        checked += 1


def test_energy_rate_nonnegative_supercritical():
    rng = np.random.default_rng(43)
    for _ in range(500):
        d = int(rng.integers(5, 8))
        x = rng.uniform(-5.0, 5.0, size=4)
        assert core.energy(d, x).rate >= 0.0


def test_energy_of_a_jet_array_is_the_energy_of_each_column():
    # one call on a (4, n) array, bit for bit the n calls on its columns
    rng = np.random.default_rng(44)
    jets = rng.uniform(-5.0, 5.0, size=(4, 300)) * 10.0 ** rng.integers(-8, 3, size=(4, 300))
    theta_star, _ = manifold.find_heteroclinic(theta_tol=1e-3)
    seed = manifold.seed_state(manifold.SeedSpec(config.EPS0, theta_star))
    orbit = integrate.integrate(manifold.D, seed)
    cases = [(d, jets) for d in range(3, 11)] + [(manifold.D, orbit.states.T)]
    for d, x in cases:
        whole = core.energy(d, x)
        for j in range(x.shape[1]):
            for one in (core.energy(d, x[:, j]), core.energy(d, core.State.from_array(x[:, j]))):
                for name in ("total", "kinetic", "potential", "rate"):
                    got = getattr(one, name)
                    assert type(got) is float
                    assert got.hex() == float(getattr(whole, name)[j]).hex(), (d, j, name)


def test_energy_rejects_other_shapes():
    for shape in ((3,), (5,), (3, 2), (4, 2, 1)):
        with pytest.raises(ValueError):
            core.energy(5, np.zeros(shape))


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 3])
def test_energy_symmetries(k):
    rng = np.random.default_rng(100 + k)
    for d in (4, 5, 6, 7):
        for _ in range(40):
            x = core.State.from_array(rng.uniform(-2, 2, size=4))
            base = core.energy(d, x)
            shifted = core.energy(d, core.symmetry_shift(x, k))
            reflected = core.energy(d, core.symmetry_reflect(x, k))
            for other in (shifted, reflected):
                assert other.total == pytest.approx(base.total, rel=1e-10, abs=1e-10)
                assert other.rate == pytest.approx(base.rate, rel=1e-10, abs=1e-10)


def test_symmetries_commute_with_field():
    # If x(s) solves the equation then so do x + k pi and k pi - x; at the
    # level of jets the field must transform accordingly.
    rng = np.random.default_rng(9)
    for d in (4, 5, 6, 7):
        for _ in range(40):
            x = core.State.from_array(rng.uniform(-2, 2, size=4))
            f = core.vector_field(d, x)
            fs = core.vector_field(d, core.symmetry_shift(x, 2))
            assert np.allclose(f, fs, atol=1e-11)
            fr = core.vector_field(d, core.symmetry_reflect(x, 1))
            assert np.allclose(fr, -f, atol=1e-11)


def test_c_star_frozen_values():
    assert core.c_star(5) == pytest.approx(2.0 * math.sqrt(6.0), abs=1e-12)
    assert core.c_star(6) == pytest.approx(3.0 * math.sqrt(5.0), abs=1e-12)
    assert core.c_star(7) == pytest.approx(36.0 / math.sqrt(13.0), abs=1e-12)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_c_star_dominates_dense_grid(d):
    # Independent re-derivation: c_star must dominate each of the three
    # expressions it is defined from, sampled densely over a period.
    phis = np.linspace(0.0, math.pi, 20001)
    d1, k, c3, _, _ = core._field_constants(d)
    q = d1 * np.cos(2.0 * phis) + k
    assert np.all(q > 0)
    m1 = np.max(2.0 * d1 * np.sin(2.0 * phis) / 12.0)  # -q'/12
    m2 = np.max(c3 * np.sin(2.0 * phis) / q)  # f/q
    m3 = np.max(np.sqrt(2.0 * c3 * np.sin(phis) ** 2))  # sqrt(2F)
    grid_max = max(m1, m2, m3)
    cs = core.c_star(d)
    assert grid_max <= cs + 1e-9
    assert cs <= grid_max + 1e-6  # the max is attained, not an overshoot


@pytest.mark.parametrize("d", [5, 6, 7])
def test_c_star_dominant_branch(d):
    a = d - 1.0
    b = -(d - 11.0) * d - 21.0
    m2 = 1.5 * (d - 3) * (d - 1) / math.sqrt(b * b - a * a)
    m3 = math.sqrt(3.0 * (d - 3) * (d - 1))
    # The ratio branch only wins at d = 7.
    if d == 7:
        assert core.c_star(d) == m2
    else:
        assert core.c_star(d) == m3


def test_c_star_rejects_other_dimensions():
    for d in (3, 4, 8, 9):
        with pytest.raises(ValueError):
            core.c_star(d)


@pytest.mark.parametrize("d", range(3, 11))
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_linearization_matches_field_jacobian(d, parity):
    # The companion matrix must be the Jacobian of the field at the
    # corresponding equilibrium, computed here by central differences.
    lin = core.linearization(d, parity)
    x0 = np.array([0.0 if parity == "even" else math.pi / 2.0, 0.0, 0.0, 0.0])
    h = 1e-6
    jac = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        jac[:, j] = (core.vector_field(d, x0 + e) - core.vector_field(d, x0 - e)) / (2 * h)
    assert np.allclose(lin.matrix, jac, rtol=0, atol=1e-5)


def test_linearization_even_eigenpairs_exact():
    for d in (4, 5, 6, 7, 8):
        lin = core.linearization(d, "even")
        assert lin.eigenvalues == (3.0, 1.0, 1.0 - d, 3.0 - d)
        for j, lam in enumerate(lin.eigenvalues):
            vec = lin.eigenvectors[:, j]
            assert np.array_equal(vec, np.array([1.0, lam, lam ** 2, lam ** 3]))
            res = np.linalg.norm(lin.matrix @ vec - lam * vec)
            assert res < 1e-12


def test_linearization_odd_d5_matrix():
    lin = core.linearization(5, "odd")
    assert lin.eigenvalues is None and lin.eigenvectors is None
    assert np.array_equal(lin.matrix[3], np.array([24.0, 6.0, 5.0, -2.0]))


def test_linearization_validation():
    with pytest.raises(ValueError):
        core.linearization(5, "mixed")
    for d in (1, 2, 11):
        with pytest.raises(ValueError):
            core.linearization(d, "even")


def test_harmonic_analogue():
    d = 7
    h = core.HarmonicState(phi=0.4, dphi=-0.3)
    f = core.harmonic_field(d, h)
    assert f[0] == h.dphi
    assert f[1] == pytest.approx(3.0 * math.sin(0.8) + 5 * 0.3)
    # Equator equilibrium.
    eq = core.harmonic_field(d, core.HarmonicState(math.pi / 2, 0.0))
    assert np.allclose(eq, 0.0, atol=1e-15)
    # Energy dissipation identity via finite differences along the flow.
    val, rate = core.harmonic_energy(d, h)
    assert val == pytest.approx(0.5 * 0.09 + 3.0 * math.cos(0.4) ** 2)
    assert rate == pytest.approx(-(d - 2) * 0.09)
    eps = 1e-6
    hp = core.HarmonicState(h.phi + eps * f[0], h.dphi + eps * f[1])
    hm = core.HarmonicState(h.phi - eps * f[0], h.dphi - eps * f[1])
    fd = (core.harmonic_energy(d, hp)[0] - core.harmonic_energy(d, hm)[0]) / (2 * eps)
    assert fd == pytest.approx(rate, rel=1e-6)


def test_psi_residual_trivial_jets():
    assert core.psi_residual(5, 1.0, (0.0, 0.0, 0.0, 0.0, 0.0)) == 0.0
    # Constant equator map solves the radial equation at any radius; the
    # only defect is sin(pi) roundoff amplified by 1/r^4.
    for r in (1.0, 3.0):
        assert core.psi_residual(5, r, (math.pi / 2, 0, 0, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert core.psi_residual(5, 0.1, (math.pi / 2, 0, 0, 0, 0)) == pytest.approx(0.0, abs=1e-10)


def test_psi_residual_detects_violation_and_rejects_bad_radius():
    assert abs(core.psi_residual(5, 1.0, (0.3, 0.1, -0.2, 0.05, 4.0))) > 1e-3
    with pytest.raises(ValueError):
        core.psi_residual(5, 0.0, (0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        core.psi_residual(5, -1.0, (0, 0, 0, 0, 0))


def test_state_validation():
    with pytest.raises(ValueError):
        core.State(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        core.State(0.0, math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        core.State.from_array([1.0, 2.0, 3.0])
    s = core.State.from_array(np.array([1.0, 2.0, 3.0, 4.0]))
    assert s.as_array().tolist() == [1.0, 2.0, 3.0, 4.0]


def test_dimension_validation():
    for d in (2, 11, 0):
        with pytest.raises(ValueError):
            core.vector_field(d, [0, 0, 0, 0])
    with pytest.raises(TypeError):
        core.energy(5.0, [0.3, 0.0, 0.0, 0.0])
