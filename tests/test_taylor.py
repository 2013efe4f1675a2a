import math
import subprocess
import sys

import numpy as np
import pytest

from biwind import core, integrate, manifold, taylor
from biwind.intervals import INTERVAL


@pytest.mark.parametrize("d", [5, 7])
def test_fourth_coefficient_is_the_field(d):
    rng = np.random.default_rng(20261018 + d)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=4)
        c = taylor.coefficients(d, x, 12)
        assert c[:4] == pytest.approx([x[0], x[1], x[2] / 2, x[3] / 6], rel=1e-15)
        assert 24.0 * c[4] == pytest.approx(core.vector_field(d, x)[3], rel=1e-13, abs=1e-12)


def test_fourth_coefficient_in_extended_precision():
    ctx = taylor.mp_context(30)
    x = (0.3, -0.2, 0.5, 0.1)
    c = taylor.coefficients(5, x, 8, ctx)
    assert float(24 * c[4]) == pytest.approx(core.vector_field(5, x)[3], rel=1e-14)


def test_coefficients_on_intervals_enclose_the_float_ones():
    # the same recurrences under the outward-rounded interval context
    x = manifold.seed_state(manifold.SeedSpec(1e-3, -math.pi / 2)).as_array()
    enclosed = taylor.coefficients(5, x, 20, INTERVAL)
    floats = taylor.coefficients(5, x, 20, core.FLOAT)
    assert len(enclosed) == len(floats) == 21
    for iv, c in zip(enclosed, floats):
        assert iv.contains(c)
    assert (24 * enclosed[4]).contains(core.vector_field(5, x)[3])
    assert 0.0 < enclosed[20].width < 1e-22


def test_jet_differentiates_the_polynomial():
    c = [1.0, 2.0, -3.0, 0.5, 0.25]
    h = 0.7
    assert taylor.jet(c, h) == pytest.approx(
        (
            1.0 + 2.0 * h - 3.0 * h**2 + 0.5 * h**3 + 0.25 * h**4,
            2.0 - 6.0 * h + 1.5 * h**2 + 1.0 * h**3,
            -6.0 + 3.0 * h + 3.0 * h**2,
            3.0 + 6.0 * h,
        ),
        rel=1e-15,
    )


@pytest.mark.parametrize("ctx", [core.FLOAT, "mp"])
def test_state_at_s5_matches_rk45(ctx):
    # forty fixed Taylor steps of order 20 from the recurrences, in the given
    # number type, against the RK45 orbit near the connecting angle
    if ctx == "mp":
        pytest.importorskip("mpmath")
        ctx = taylor.mp_context(30)
    seed = manifold.seed_state(manifold.SeedSpec(1e-3, 0.78539792886))
    rk = integrate.integrate(5, seed, cfg=integrate.IntegrationConfig(max_span=5.0))
    assert rk.termination.kind is integrate.TerminationKind.SPAN_EXHAUSTED
    x = tuple(ctx.mpf(t) for t in seed.as_array())
    for _ in range(40):
        x = taylor.jet(taylor.coefficients(5, x, 20, ctx), ctx.mpf(0.125), ctx)
    np.testing.assert_allclose(
        np.asarray(x, dtype=float), rk.states[-1], rtol=0.0, atol=1e-8
    )


def test_integrate_rejects_bad_input():
    x = (0.1, 0.0, 0.2, 0.0)
    with pytest.raises(ValueError):
        taylor.coefficients(5, x, 3)
    for d in (2, 11):
        with pytest.raises(ValueError, match="dimension"):
            taylor.coefficients(d, x, 8)
    with pytest.raises(TypeError, match="dimension"):
        taylor.coefficients(5.5, x, 8)
    with pytest.raises(ValueError):
        taylor.mp_context(10)


def test_missing_mpmath_names_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)
    with pytest.raises(ImportError, match=r"biwind\[precision\]"):
        taylor.mp_context(38)


def test_cli_import_does_not_load_mpmath():
    # neither the Taylor recurrences nor mpmath: no command runs them
    code = (
        "import biwind.cli, sys; "
        "assert 'biwind.taylor' not in sys.modules, 'biwind.taylor loaded'; "
        "assert 'mpmath' not in sys.modules, 'mpmath loaded'"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
