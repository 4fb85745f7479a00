"""Row builders against the one-``add_row``-per-row references they replace."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrobust.ambiguity import DiscreteLottery
from prefrobust.blocks import (
    append_ball_membership,
    append_pairwise_rows,
    append_utility_block,
)
from prefrobust.lp import LinearProgram
from prefrobust.worst_case import supporting_line_primal


def lottery_grid_probs(grid, lottery):
    """Probability mass of a lottery on each grid point (support must lie on
    the grid within 1e-9)."""
    y = np.asarray(grid, dtype=float)
    mass = np.zeros(y.size)
    for x, p in zip(lottery.support, lottery.probs):
        j = int(np.argmin(np.abs(y - x)))
        if abs(y[j] - x) > 1e-9:
            raise ValueError(f"lottery outcome {x!r} is not a grid point")
        mass[j] += p
    return mass


def pairwise_rows_reference(lp, alpha, grid, pairs, margin=0.0, tag="pc"):
    """One ``add_row`` per comparison, as the rows were first built."""
    rows = []
    for k, (w, yk, z) in enumerate(pairs):
        diff = lottery_grid_probs(grid, w) - lottery_grid_probs(grid, yk)
        coefs = {alpha[j]: z * diff[j] for j in range(len(alpha)) if diff[j] != 0.0}
        rows.append(lp.add_row(coefs, ">=", margin, name=f"{tag}[{k}]"))
    return rows


def _program(grid):
    lp = LinearProgram("min")
    lp.add_var("other")
    alpha = lp.add_vars(len(grid), "alpha", lb=-math.inf)
    return lp, alpha


@st.composite
def questionnaires(draw):
    """A grid and comparisons between lotteries on it.  Outcomes sit on grid
    points up to a nudge below the 1e-9 matching tolerance, and one lottery
    may name a point twice."""
    n = draw(st.integers(2, 25))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    grid = np.concatenate(([0.0], np.cumsum(steps)))

    def lottery():
        size = draw(st.integers(1, 4))
        points = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
        nudges = draw(st.lists(st.floats(-9e-10, 9e-10), min_size=size, max_size=size))
        weights = np.asarray(draw(st.lists(st.integers(1, 9), min_size=size, max_size=size)))
        probs = weights / weights.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        return DiscreteLottery(tuple(float(grid[j] + e) for j, e in zip(points, nudges)),
                               tuple(float(p) for p in probs))

    pairs = [(lottery(), lottery(), draw(st.sampled_from([-1, 0, 1])))
             for _ in range(draw(st.integers(0, 30)))]
    return grid, pairs, draw(st.sampled_from([0.0, 1e-9]))


@settings(max_examples=100, deadline=None)
@given(questionnaires())
def test_pairwise_rows_equal_the_scalar_reference(case):
    grid, pairs, margin = case
    bulk, alpha = _program(grid)
    ref, ref_alpha = _program(grid)
    rows = append_pairwise_rows(bulk, alpha, grid, pairs, margin=margin)
    ref_rows = pairwise_rows_reference(ref, ref_alpha, grid, pairs, margin=margin)
    assert list(rows) == ref_rows
    a, b = bulk.row_matrix(), ref.row_matrix()
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, part), getattr(b, part))
    assert bulk.relations.tolist() == ref.relations.tolist()
    assert bulk.rhs.tobytes() == ref.rhs.tobytes()
    assert [bulk.row_name(k) for k in rows] == [ref.row_name(k) for k in ref_rows]


@settings(max_examples=100, deadline=None)
@given(questionnaires(), st.data())
def test_stacked_pairwise_rows_equal_one_call_per_part(case, data):
    grid, pairs, margin = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=3)))
    parts = [pairs[i:j] for i, j in zip([0, *cuts], [*cuts, len(pairs)])]
    stacked, alpha = _program(grid)
    apart, apart_alpha = _program(grid)
    rows = append_pairwise_rows(stacked, alpha, grid, *parts, margin=margin)
    for part in parts:
        append_pairwise_rows(apart, apart_alpha, grid, part, margin=margin)
    assert rows.tolist() == list(range(apart.num_rows))
    a, b = stacked.row_matrix(), apart.row_matrix()
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, part), getattr(b, part))
    assert stacked.rhs.tobytes() == apart.rhs.tobytes()
    # each part's rows are named pc[k] from 0
    assert stacked.row_names == apart.row_names


@pytest.mark.parametrize("outcome", [0.3, 0.25 + 2e-9, math.nan])
def test_pairwise_rows_reject_off_grid_outcomes(outcome):
    grid = np.linspace(0.0, 1.0, 5)
    lp, alpha = _program(grid)
    good = DiscreteLottery.point_mass(0.5)
    # DiscreteLottery itself refuses a NaN outcome, so the rows see a stand-in
    bad = SimpleNamespace(support=(0.0, outcome), probs=(0.5, 0.5))
    with pytest.raises(ValueError, match=f"outcome {outcome!r} is not a grid point"):
        append_pairwise_rows(lp, alpha, grid, [(good, good, 1), (good, bad, 1)])
    assert lp.num_rows == 0


def test_pairwise_rows_make_no_single_row_calls(monkeypatch):
    grid = np.linspace(0.0, 1.0, 5)
    lp, alpha = _program(grid)
    calls = []
    monkeypatch.setattr(LinearProgram, "add_row", lambda *a, **k: calls.append(a))
    pairs = [(DiscreteLottery.two_outcome(0.0, 1.0, 0.5), DiscreteLottery.point_mass(0.5), 1)]
    append_pairwise_rows(lp, alpha, grid, pairs * 40)
    assert calls == [] and lp.num_rows == 40


# ------------------------------------------- utility, ball and support rows
def utility_block_reference(lp, grid, L, L_tilde, tag="u"):
    """The utility block as it was built, one ``add_row`` per row."""
    y = np.asarray(grid, dtype=float)
    delta = np.diff(y)
    n_seg = delta.size
    alpha = lp.add_vars(y.size, f"{tag}.alpha", lb=-math.inf)
    beta = lp.add_vars(n_seg, f"{tag}.beta", lb=0.0)
    rows = {
        "norm0": lp.add_row({alpha[0]: 1.0}, "=", 0.0, name=f"{tag}.norm0"),
        "norm1": lp.add_row({alpha[-1]: 1.0}, "=", 1.0, name=f"{tag}.norm1"),
        "link": [lp.add_row({alpha[i + 1]: 1.0, alpha[i]: -1.0, beta[i]: -delta[i]}, "=", 0.0,
                            name=f"{tag}.link[{i}]") for i in range(n_seg)],
        "lip": [lp.add_row({beta[i]: 1.0}, "<=", L, name=f"{tag}.lip[{i}]")
                for i in range(n_seg)],
        "concave": [
            lp.add_row({alpha[i + 1]: 1.0, alpha[i]: -1.0, beta[i + 1]: -delta[i]}, ">=", 0.0,
                       name=f"{tag}.concave[{i}]") for i in range(n_seg - 1)],
    }
    rows["curve_lo"], rows["curve_hi"] = [], []
    for i in range(n_seg - 1):
        cap = L_tilde * (y[i + 2] - y[i])
        rows["curve_hi"].append(lp.add_row({beta[i + 1]: 1.0, beta[i]: -1.0}, "<=", cap,
                                           name=f"{tag}.curve_hi[{i}]"))
        rows["curve_lo"].append(lp.add_row({beta[i + 1]: -1.0, beta[i]: 1.0}, "<=", cap,
                                           name=f"{tag}.curve_lo[{i}]"))
    return alpha, beta, rows


def ball_membership_reference(lp, beta, nominal_slopes, grid, radius, tag="ball"):
    """The ball rows as they were built, one ``add_row`` per row."""
    delta = np.diff(np.asarray(grid, dtype=float))
    n_seg = delta.size
    bnom = np.asarray(nominal_slopes, dtype=float)
    lam, mu, rho, phi = (lp.add_vars(n_seg, f"{tag}.{v}") for v in ("lam", "mu", "rho", "phi"))
    budget = {}
    for i in range(n_seg):
        half = 0.5 * delta[i] ** 2
        for v in (lam[i], mu[i], rho[i], phi[i]):
            budget[v] = half
    rows = {"budget": lp.add_row(budget, "<=", float(radius), name=f"{tag}.budget")}
    rows["match"] = [
        lp.add_row({beta[i]: -1.0, lam[i]: 1.0, mu[i]: -1.0, rho[i]: 1.0, phi[i]: -1.0},
                   "=", -bnom[i], name=f"{tag}.match[{i}]") for i in range(n_seg)]
    rows["left"] = lp.add_row({mu[0]: delta[0], lam[0]: -delta[0]}, "=", 0.0,
                              name=f"{tag}.left")
    rows["mid"] = [
        lp.add_row({mu[i + 1]: delta[i + 1], lam[i + 1]: -delta[i + 1],
                    phi[i]: delta[i], rho[i]: -delta[i]}, "=", 0.0, name=f"{tag}.mid[{i}]")
        for i in range(n_seg - 1)]
    rows["right"] = lp.add_row(
        {phi[n_seg - 1]: delta[n_seg - 1], rho[n_seg - 1]: -delta[n_seg - 1]}, "=", 0.0,
        name=f"{tag}.right")
    return {"lam": lam, "mu": mu, "rho": rho, "phi": phi, "rows": rows}


def supporting_line_reference(values, probs, y, L, L_tilde):
    """The supporting-line LP as it was built, one ``add_row`` per sup row."""
    lp = LinearProgram("min", name="worst-case")
    alpha, _, _ = utility_block_reference(lp, y, L, L_tilde)
    S = len(values)
    eps = lp.add_vars(S, "eps", lb=0.0, obj=[q * h for h, q in zip(values, probs)])
    fee = lp.add_vars(S, "fee", lb=-np.inf, obj=probs)
    for i in range(S):
        for j in range(y.size):
            lp.add_row({eps[i]: y[j], fee[i]: 1.0, alpha[j]: -1.0}, ">=", 0.0,
                       name=f"sup[{i},{j}]")
    return lp


def assert_same_program(a, b, names=True):
    """Bit for bit: sense, matrix, rows, bounds, costs and (unless ``names``
    is off) row and variable names."""
    ma, mb = a.row_matrix(), b.row_matrix()
    for part in ("data", "indices", "indptr"):
        assert getattr(ma, part).tobytes() == getattr(mb, part).tobytes()
    assert a.sense == b.sense and a.relations.tolist() == b.relations.tolist()
    for part in ("rhs", "lower", "upper", "objective"):
        assert getattr(a, part).tobytes() == getattr(b, part).tobytes()
    if names:
        assert [a.row_name(k) for k in range(a.num_rows)] == \
            [b.row_name(k) for k in range(b.num_rows)]
        assert [a.var_name(j) for j in range(a.num_vars)] == \
            [b.var_name(j) for j in range(b.num_vars)]


@st.composite
def shape_rows(draw):
    """A grid (2 to 25 points, uneven steps, possibly shifted), class
    constants, a nominal slope vector, a radius and a few outcomes on it."""
    n = draw(st.integers(2, 25))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    grid = draw(st.floats(-2.0, 2.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    L, L_tilde = draw(st.floats(0.1, 50.0)), draw(st.floats(0.1, 50.0))
    slopes = np.asarray(draw(st.lists(st.floats(0.0, 5.0), min_size=n - 1, max_size=n - 1)))
    S = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(float(grid[0]), float(grid[-1])), min_size=S, max_size=S))
    probs = np.full(S, 1.0 / S)
    return grid, L, L_tilde, slopes, draw(st.floats(0.0, 1.0)), values, probs


@settings(max_examples=60, deadline=None)
@given(shape_rows())
def test_block_rows_equal_the_row_by_row_reference(case):
    grid, L, L_tilde, slopes, radius, values, probs = case
    bulk, ref = LinearProgram("min"), LinearProgram("min")
    for lp in (bulk, ref):
        lp.add_var("other")
    block = append_utility_block(bulk, grid, L, L_tilde)
    ref_alpha, ref_beta, ref_rows = utility_block_reference(ref, grid, L, L_tilde)
    assert block.rows == ref_rows
    ball = append_ball_membership(bulk, block.beta, slopes, grid, radius)
    ref_ball = ball_membership_reference(ref, ref_beta, slopes, grid, radius)
    assert ball["rows"] == ref_ball["rows"]
    assert_same_program(bulk, ref)

    lp = supporting_line_primal(values, probs, grid, L, L_tilde)[0]
    assert_same_program(lp, supporting_line_reference(values, probs, grid, L, L_tilde))


def test_block_rows_make_no_single_row_calls(monkeypatch):
    grid = np.linspace(0.0, 1.0, 6)
    calls = []
    monkeypatch.setattr(LinearProgram, "add_row", lambda *a, **k: calls.append(a))
    lp, block = supporting_line_primal([0.2, 0.7], [0.5, 0.5], grid, 3.0, 9.0)[:2]
    append_ball_membership(lp, block.beta, np.ones(5), grid, 0.05)
    assert calls == [] and lp.num_rows == 48
