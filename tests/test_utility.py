import logging
import math

import numpy as np
import pytest

from prefrobust.lp import LinearProgram
from prefrobust.utility import (
    ClosedFormUtility,
    PiecewiseLinearUtility,
    build_kantorovich_lp,
    kantorovich_exact,
    kantorovich_lp,
    kantorovich_lp_dual,
    kolmogorov,
    merge_grids,
    project,
    uniform_grid,
)

from oracles import pl_l1_distance
from test_blocks import assert_same_program


def random_pl(rng, n=None, domain=(0.0, 1.0)):
    """Random normalized nondecreasing PL utility on a random grid."""
    a, b = domain
    n = n or rng.integers(3, 9)
    gaps = 0.05 + rng.random(n - 1)
    y = a + np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum() * (b - a)
    y[-1] = b
    v = np.sort(rng.random(n))
    v = (v - v[0]) / (v[-1] - v[0])
    return PiecewiseLinearUtility(y, v)


def test_identity_vs_kinked_pair():
    u = PiecewiseLinearUtility([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    v = PiecewiseLinearUtility([0.0, 0.5, 1.0], [0.0, 1.0, 1.0])
    assert kantorovich_exact(u, v) == pytest.approx(0.25, abs=1e-12)
    assert kolmogorov(u, v) == pytest.approx(0.5, abs=1e-12)
    # relaxation is tight on this instance
    assert kantorovich_lp(u, v) == pytest.approx(0.25, abs=1e-8)
    assert kantorovich_lp_dual(u, v) == pytest.approx(0.25, abs=1e-8)


def test_metric_axioms_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        u, v = random_pl(rng), random_pl(rng)
        exact = kantorovich_exact(u, v)
        lp_val = kantorovich_lp(u, v)
        assert lp_val >= exact - 1e-8
        assert kantorovich_lp(v, u) == pytest.approx(lp_val, abs=1e-8)
        assert kantorovich_lp_dual(u, v) == pytest.approx(lp_val, abs=1e-7)
        assert kantorovich_exact(v, u) == pytest.approx(exact, abs=1e-12)
        # cross-check the closed-form integral against the reference rule
        y, uy, vy = merge_grids(u, v)
        assert exact == pytest.approx(pl_l1_distance(y, uy, vy), abs=1e-12)


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = random_pl(rng)
        assert kantorovich_exact(u, u) == 0.0
        assert abs(kantorovich_lp(u, u)) <= 1e-9


def test_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(20):
        u, v, w = random_pl(rng), random_pl(rng), random_pl(rng)
        duw = kantorovich_exact(u, w)
        assert duw <= kantorovich_exact(u, v) + kantorovich_exact(v, w) + 1e-12


def test_lp_gap_shrinks_with_mesh():
    # the pair must actually cross inside a segment at every mesh, otherwise
    # the relaxation is tight and the gap is identically zero
    exp = ClosedFormUtility.exponential(2.0)
    quad = ClosedFormUtility.quadratic()
    gaps = []
    for n in (5, 10, 20, 40):
        grid = uniform_grid(0.0, 1.0, n)
        u, v = project(exp, grid), project(quad, grid)
        gaps.append(kantorovich_lp(u, v) - kantorovich_exact(u, v))
    assert all(g >= -1e-8 for g in gaps)
    assert gaps[0] > 1e-4  # relaxation genuinely loose on the coarse mesh
    assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))


def test_observed_moduli():
    ident = PiecewiseLinearUtility([0.0, 1.0], [0.0, 1.0])
    assert ident.lipschitz_moduli() == (1.0, 0.0)

    u1 = ClosedFormUtility.min_affine([(3.0, 0.0), (0.5, 0.5)])
    pl = project(u1, [0.0, 0.2, 1.0])
    L, Lt = pl.lipschitz_moduli()
    assert L == pytest.approx(3.0, abs=1e-12)
    assert Lt == pytest.approx(2.5, abs=1e-12)


def test_closed_form_values_and_bounds():
    u1 = ClosedFormUtility.min_affine([(3.0, 0.0), (0.5, 0.5)])
    assert u1(0.8) == pytest.approx(0.9, abs=1e-12)
    assert u1.lipschitz() == 3.0

    quad = ClosedFormUtility.quadratic()
    assert quad(0.5) == pytest.approx(0.75, abs=1e-12)
    assert quad.curvature() == 2.0

    exp = ClosedFormUtility.exponential(3.0)
    denom = 1.0 - math.exp(-3.0)
    assert exp.lipschitz() == pytest.approx(3.0 / denom, rel=1e-12)
    assert exp.curvature() == pytest.approx(9.0 / denom, rel=1e-12)
    assert exp(0.0) == 0.0 and exp(1.0) == pytest.approx(1.0, abs=1e-15)

    wide = ClosedFormUtility.exponential(3.0, domain=(0.0, 2.0))
    assert wide.lipschitz() == pytest.approx(3.0 / (denom * 2.0), rel=1e-12)

    # at k = 2**-53 the normalizer 1 - exp(-k) is the smallest double it can be
    tiny = ClosedFormUtility.exponential(2.0 ** -53)
    assert tiny(0.0) == 0.0 and tiny(1.0) == 1.0 and math.isfinite(tiny.lipschitz())

    with pytest.raises(ValueError):
        ClosedFormUtility.min_affine([(2.0, 0.1)])  # u(0) = 0.1, not normalized
    with pytest.raises(ValueError):
        u1.curvature()


@pytest.mark.parametrize("k", [1e-12, 1e-9])
def test_small_k_exponential_follows_its_series(k):
    # u(t) = (1 - exp(-k t)) / (1 - exp(-k)) = t + k t (1 - t) / 2 + O(k^2)
    u = ClosedFormUtility.exponential(k)
    t = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(u(t) - (t + k * t * (1.0 - t) / 2.0))) <= 1e-12
    assert abs(u(0.5) - (0.5 + k / 8.0)) <= 1e-12
    assert abs(u.lipschitz() - (1.0 + k / 2.0)) <= 1e-12
    assert abs(u.curvature() - k) <= 1e-12


@pytest.mark.parametrize("make, message", [
    (lambda: ClosedFormUtility.exponential(math.nan), "needs a finite k > 0, got nan"),
    (lambda: ClosedFormUtility.exponential(math.inf), "needs a finite k > 0, got inf"),
    (lambda: ClosedFormUtility.min_affine([(math.nan, 0.0), (1.0, 0.0)]),
     r"min_affine piece 0 is \(nan, 0.0\)"),
    (lambda: ClosedFormUtility.min_affine([(2.0, 0.0), (0.0, math.inf)]),
     r"min_affine piece 1 is \(0.0, inf\)"),
    # 1 - exp(-k) rounds to 0: every value would be NaN and lipschitz() 1/0
    (lambda: ClosedFormUtility.exponential(1e-17), r"k = 1e-17 is so small"),
    (lambda: ClosedFormUtility.exponential(5e-324), r"k = 5e-324 is so small"),
    # (x - a) / (b - a) would be 0 at every finite x
    (lambda: ClosedFormUtility.linear(domain=(0.0, math.inf)),
     r"utility domain \(0.0, inf\) has a non-finite end"),
    (lambda: ClosedFormUtility.exponential(3.0, domain=(-math.inf, 1.0)),
     r"utility domain \(-inf, 1.0\) has a non-finite end"),
    (lambda: ClosedFormUtility.quadratic(domain=(0.0, math.nan)),
     r"utility domain \(0.0, nan\) has a non-finite end"),
])
def test_closed_forms_refuse_non_finite_parameters(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_projection_is_interpolation():
    exp = ClosedFormUtility.exponential(3.0)
    grid = uniform_grid(0.0, 1.0, 9)
    pl = project(exp, grid)
    assert np.allclose(pl.values, exp(grid), atol=1e-15)
    # projecting a PL utility onto a refinement reproduces it exactly
    fine = np.union1d(grid, uniform_grid(0.0, 1.0, 17))
    pl2 = project(pl, fine)
    x = np.linspace(0.0, 1.0, 301)
    assert np.allclose(pl2(x), pl(x), atol=1e-15)
    with pytest.raises(ValueError):
        project(exp, [0.1, 0.5, 1.0])


def test_constructor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([0.0, 0.5, 1.0], [0.0, 0.5, 0.9])  # not normalized
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([0.0, 0.5, 1.0], [0.0, 0.7, 0.4])  # decreasing
    with pytest.raises(ValueError):
        PiecewiseLinearUtility([0.0, 0.5, 0.5, 1.0], [0.0, 0.2, 0.8, 1.0])
    with pytest.raises(ValueError):
        merge_grids(
            PiecewiseLinearUtility([0.0, 1.0], [0.0, 1.0]),
            PiecewiseLinearUtility([0.0, 2.0], [0.0, 1.0]),
        )


@pytest.mark.parametrize("breakpoints, values, match", [
    ([0.0, 0.5, 1.0], [0.0, math.nan, 1.0], r"values\[1\] is nan"),
    ([0.0, math.nan, 1.0], [0.0, 0.5, 1.0], r"breakpoints\[1\] is nan"),
    ([0.0, 0.5, math.inf], [0.0, 0.5, 1.0], r"breakpoints\[2\] is inf"),
    ([0.0, 0.5, 1.0], [0.0, -math.inf, 1.0], r"values\[1\] is -inf"),
])
def test_constructor_names_a_non_finite_entry(breakpoints, values, match):
    with pytest.raises(ValueError, match=match):
        PiecewiseLinearUtility(breakpoints, values)


def test_concavity_flag():
    assert PiecewiseLinearUtility([0.0, 0.5, 1.0], [0.0, 1.0, 1.0]).is_concave()
    assert not PiecewiseLinearUtility([0.0, 0.2, 1.0], [0.0, 0.1, 1.0]).is_concave()


def test_out_of_domain_warns_and_clamps(caplog):
    u = PiecewiseLinearUtility([0.0, 1.0], [0.0, 1.0])
    with caplog.at_level(logging.WARNING, logger="prefrobust.utility"):
        val = u(1.5)
    assert val == 1.0
    assert any("clamping" in r.message for r in caplog.records)


def _kantorovich_lp_reference(y, beta_u, beta_v):
    """The metric LP as it was first built, one ``add_row`` per inequality."""
    y = np.asarray(y, dtype=float)
    delta = np.diff(y)
    coef = np.asarray(beta_u, dtype=float) - np.asarray(beta_v, dtype=float)
    lp = LinearProgram("max", name="kantorovich")
    w = lp.add_vars(delta.size, "w", lb=-math.inf, obj=coef)
    z = lp.add_vars(delta.size + 1, "z", lb=-math.inf)
    for i in range(delta.size):
        half = 0.5 * delta[i] ** 2
        lp.add_row({w[i]: 1.0, z[i]: -delta[i]}, "<=", half)
        lp.add_row({w[i]: -1.0, z[i]: delta[i]}, "<=", half)
        lp.add_row({w[i]: 1.0, z[i + 1]: -delta[i]}, "<=", half)
        lp.add_row({w[i]: -1.0, z[i + 1]: delta[i]}, "<=", half)
    lp.add_row({z[0]: 1.0}, "=", 0.0, name="gauge")
    return lp


@pytest.mark.parametrize("seed", range(4))
def test_metric_lp_equals_the_row_by_row_build(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    y = np.sort(rng.uniform(-1.0, 3.0, size=n))
    beta_u, beta_v = rng.uniform(0.0, 2.0, size=(2, n - 1))
    ref = _kantorovich_lp_reference(y, beta_u, beta_v)
    calls = []
    monkeypatch.setattr(LinearProgram, "add_row", lambda *a, **k: calls.append(a))
    assert_same_program(build_kantorovich_lp(y, beta_u, beta_v), ref)
    assert calls == []
