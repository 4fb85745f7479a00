"""Pairwise comparison rows against the scalar reference they replace."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefrobust.ambiguity import DiscreteLottery
from prefrobust.blocks import append_pairwise_rows
from prefrobust.lp import LinearProgram


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
    assert bulk.relations == ref.relations
    assert bulk.rhs.tobytes() == ref.rhs.tobytes()
    assert [bulk.row_name(k) for k in rows] == [ref.row_name(k) for k in ref_rows]


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
