import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy._core import MatrixFormat, ObjSense

from prefrobust.lp import (
    BASIC,
    LOWER,
    UPPER,
    ZERO,
    HighsSession,
    LinearProgram,
    LpSolution,
    LpStatus,
    RowLayout,
    at_bound,
    dualize,
)
from oracles import lp_vertex_oracle


def test_simple_max():
    lp = LinearProgram("max")
    x = lp.add_var("x", obj=1.0)
    y = lp.add_var("y", obj=1.0)
    lp.add_row({x: 1.0, y: 1.0}, "<=", 1.0)
    sol = lp.solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_infeasible_classified():
    lp = LinearProgram("min")
    x = lp.add_var("x", obj=1.0)  # x >= 0 by default
    lp.add_row({x: 1.0}, "<=", -1.0)
    assert lp.solve().status is LpStatus.INFEASIBLE


def test_unbounded_classified():
    lp = LinearProgram("max")
    lp.add_var("x", lb=-math.inf, ub=math.inf, obj=1.0)
    assert lp.solve().status is LpStatus.UNBOUNDED


def test_free_vars_and_equalities_native():
    # min |x - 3| style: x free, t >= x-3, t >= 3-x
    lp = LinearProgram("min")
    x = lp.add_var("x", lb=-math.inf)
    t = lp.add_var("t", lb=-math.inf, obj=1.0)
    lp.add_row({t: 1.0, x: -1.0}, ">=", -3.0)
    lp.add_row({t: 1.0, x: 1.0}, ">=", 3.0)
    lp.add_row({x: 1.0}, "=", 7.0)
    sol = lp.solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(4.0, abs=1e-9)
    assert sol.x[x] == pytest.approx(7.0, abs=1e-9)


def test_degenerate_vertex_solves():
    # three redundant constraints meeting at the optimum
    lp = LinearProgram("max")
    x = lp.add_var("x", obj=1.0)
    y = lp.add_var("y", obj=1.0)
    lp.add_row({x: 1.0, y: 1.0}, "<=", 2.0)
    lp.add_row({x: 1.0}, "<=", 1.0)
    lp.add_row({y: 1.0}, "<=", 1.0)
    lp.add_row({x: 2.0, y: 2.0}, "<=", 4.0)
    sol = lp.solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-9)


def test_strong_duality_gap_reported():
    rng = np.random.default_rng(5)
    for _ in range(30):
        lp = _random_feasible_lp(rng)
        sol = lp.solve()
        assert sol.status is LpStatus.OPTIMAL
        assert abs(sol.objective - sol.dual_objective) <= 1e-7


def _random_feasible_lp(rng):
    """Bounded box + random rows kept feasible by construction (rhs from a
    random interior point)."""
    n = rng.integers(2, 5)
    lp = LinearProgram(rng.choice(["min", "max"]))
    for j in range(n):
        lp.add_var(f"x{j}", lb=0.0, ub=float(rng.uniform(0.5, 2.0)),
                   obj=float(rng.normal()))
    x0 = np.array([rng.uniform(0, lp.upper[j]) for j in range(n)])
    for _ in range(rng.integers(1, 5)):
        a = rng.normal(size=n)
        rel = rng.choice(["<=", ">="])
        slack = rng.uniform(0.0, 1.0)
        rhs = a @ x0 + (slack if rel == "<=" else -slack)
        lp.add_row((np.arange(n), a), rel, rhs)
    return lp


def random_small_lp(rng):
    """Random small LP with finite boxes; may be infeasible, never unbounded."""
    n = int(rng.integers(2, 5))
    lp = LinearProgram(rng.choice(["min", "max"]))
    for j in range(n):
        lp.add_var(f"x{j}", lb=0.0, ub=float(rng.uniform(0.5, 2.0)),
                   obj=float(rng.normal()))
    m = int(rng.integers(1, 6))
    for _ in range(m):
        a = rng.normal(size=n)
        rel = rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.1])
        rhs = float(rng.normal(scale=1.5))
        lp.add_row((np.arange(n), a), rel, rhs)
    return lp


def test_matches_vertex_oracle_on_random_lps():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(60):
        lp = random_small_lp(rng)
        status, value, _ = lp_vertex_oracle(lp)
        sol = lp.solve()
        if status == "infeasible":
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(value, abs=1e-8)
            checked += 1
    assert checked >= 10  # the generator must exercise the optimal branch


def test_deterministic_repeat():
    rng = np.random.default_rng(7)
    lp = _random_feasible_lp(rng)
    a = lp.solve()
    b = lp.solve()
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.duals, b.duals)


def _dump(lp):
    """Plain-text rendering of ``lp``, one constraint per line (a debugging
    aid)."""
    out = [f"{lp.sense} " + " + ".join(
        f"{c:g}*{lp.var_name(j)}" for j, c in enumerate(lp.objective) if c != 0.0)]
    mat, rels, rhs = lp.row_matrix(), lp.relations, lp.rhs
    for k in range(lp.num_rows):
        lo, hi = mat.indptr[k], mat.indptr[k + 1]
        terms = " + ".join(
            f"{v:g}*{lp.var_name(j)}" for j, v in zip(mat.indices[lo:hi], mat.data[lo:hi]))
        out.append(f"{lp.row_name(k)}: {terms or '0'} {rels[k]} {rhs[k]:g}")
    for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
        if (lo, hi) != (0.0, math.inf):
            out.append(f"bound: {lo:g} <= {lp.var_name(j)} <= {hi:g}")
    return "\n".join(out)


def test_dump_lists_each_row():
    lp = LinearProgram("min", name="demo")
    x = lp.add_var("x", obj=1.0)
    lp.add_row({x: 2.0}, ">=", 1.0, name="half")
    text = _dump(lp)
    assert "half: 2*x >= 1" in text
    assert text.splitlines()[0].startswith("min")


# ------------------------------------------------------ linprog as reference

def _linprog_reference(lp, presolve=True, devex=False):
    """``lp`` solved through ``scipy.optimize.linprog(method="highs-ds")``
    with linprog's ``presolve`` option, and its
    ``simplex_dual_edge_weight_strategy`` set to ``"devex"`` when ``devex``
    is true, read back as
    :meth:`LinearProgram.solve` reads HiGHS: the layout and read-back the
    package used before it loaded HiGHS itself."""
    sign = 1.0 if lp.sense == "min" else -1.0
    A, rels, rhs = lp.row_matrix(), np.asarray(lp.relations, dtype=str), lp.rhs
    is_eq, is_ge = rels == "=", rels == ">="
    ub_mask = ~is_eq
    flip = np.where(is_ge[ub_mask], -1.0, 1.0)
    A_ub = b_ub = A_eq = b_eq = None
    if ub_mask.any():
        A_ub, b_ub = sp.diags(flip) @ A[ub_mask], flip * rhs[ub_mask]
    if is_eq.any():
        A_eq, b_eq = A[is_eq], rhs[is_eq]
    bounds = [(lo if lo > -math.inf else None, hi if hi < math.inf else None)
              for lo, hi in zip(lp.lower, lp.upper)]
    res = linprog(sign * lp.objective, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-8,
                           "dual_feasibility_tolerance": 1e-8, "presolve": presolve,
                           "simplex_dual_edge_weight_strategy": "devex" if devex else None})
    if res.status in (2, 3):
        return LpSolution(LpStatus.INFEASIBLE if res.status == 2 else LpStatus.UNBOUNDED)
    if res.status != 0:
        return LpSolution(LpStatus.FAILED)
    x = np.asarray(res.x)
    duals = np.zeros(lp.num_rows)
    if A_ub is not None:
        duals[ub_mask] = flip * res.ineqlin.marginals
    if A_eq is not None:
        duals[is_eq] = res.eqlin.marginals
    duals *= sign
    lo, hi = lp.lower, lp.upper
    finite_lo, finite_hi = lo > -math.inf, hi < math.inf
    dual_obj = float(rhs @ duals)
    dual_obj += float(lo[finite_lo] @ (sign * np.asarray(res.lower.marginals))[finite_lo])
    dual_obj += float(hi[finite_hi] @ (sign * np.asarray(res.upper.marginals))[finite_hi])
    return LpSolution(LpStatus.OPTIMAL, objective=float(lp.objective @ x), x=x, duals=duals,
                      dual_objective=dual_obj)


_BOUNDS = {"nonneg": (0.0, math.inf), "free": (-math.inf, math.inf),
           "nonpos": (-math.inf, 0.0)}


@st.composite
def programs(draw, senses=("min", "max")):
    """A small LP over nonnegative, free, nonpositive and boxed (some fixed)
    variables with <=, = and >= rows, plus a sequence of costs to drive it
    through.

    Right-hand sides come from a point inside the bounds, moved by a random
    slack, so most programs are feasible and some are not; free and
    one-sided variables let some costs run unbounded."""
    n = draw(st.integers(1, 5))
    lp = LinearProgram(draw(st.sampled_from(senses)))
    x0 = []
    for j in range(n):
        kind = draw(st.sampled_from(["nonneg", "free", "nonpos", "boxed"]))
        if kind == "boxed":
            lo = draw(st.integers(-9, 6)) / 7.0
            lb, ub = lo, lo + draw(st.integers(0, 4)) / 3.0
        else:
            lb, ub = _BOUNDS[kind]
        lp.add_var(f"x{j}", lb=lb, ub=ub)
        x0.append(min(max(draw(st.integers(-4, 4)) / 2.0, lb), ub))
    x0 = np.array(x0)
    for _ in range(draw(st.integers(0, 5))):
        a = np.array([draw(st.integers(-3, 3)) for _ in range(n)], dtype=float)
        rel = draw(st.sampled_from(["<=", "=", ">="]))
        slack = draw(st.integers(-1, 3)) / 2.0
        lp.add_row((np.arange(n), a), rel, a @ x0 + (slack if rel == "<=" else -slack))
    costs = draw(st.lists(
        st.lists(st.integers(-21, 21), min_size=n, max_size=n), min_size=2, max_size=5))
    # sevenths, so that the order of a sum shows in its rounding
    return lp, [np.array(c, dtype=float) / 7.0 for c in costs]


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


@pytest.mark.parametrize("options", [{}, {"presolve": False}, {"presolve": False, "devex": True}],
                         ids=["default", "no-presolve", "no-presolve-devex"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_solve_matches_linprog_bit_for_bit(options, case):
    lp, costs = case
    for cost in costs:
        lp.objective = cost
        got, want = lp.solve(**options), _linprog_reference(lp, **options)
        assert got.status is want.status
        if want.is_optimal:
            assert _hex(got.x) == _hex(want.x)
            assert _hex(got.duals) == _hex(want.duals)
            assert _hex(got.dual_objective) == _hex(want.dual_objective)
            assert got.objective == want.objective


def _nan_program(where, value):
    lp = LinearProgram("min", name="probe")
    x = lp.add_var("x", obj=1.0)
    y = lp.add_var("y", lb=-1.0, ub=1.0, obj=-1.0)
    lp.add_row({x: 1.0, y: 1.0}, ">=", 0.5, name="cover")
    if where == "cost":
        lp.objective = [1.0, value]
    elif where == "coefficient":
        lp.add_row({x: value, y: 1.0}, "<=", 3.0, name="cap")
    else:
        lp.add_row({x: 1.0}, "=", value, name="pin")
    return lp


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where, message", [
    ("cost", "LP probe: the cost of y is {}"),
    ("coefficient", "LP probe: the coefficient of x in cap is {}"),
    ("rhs", "LP probe: the rhs of pin is {}"),
])
def test_non_finite_input_is_refused_naming_the_program(where, message, value):
    lp = _nan_program(where, value)
    with pytest.raises(ValueError) as err:
        lp.solve()
    assert str(err.value) == message.format(value)
    with pytest.raises(ValueError, match="LP probe"):
        HighsSession(lp).minimum(lp.objective)


def test_a_model_highs_refuses_at_load_is_named():
    # HiGHS refuses matrix values of 1e15 and above at load
    lp = LinearProgram("min", name="huge")
    x = lp.add_vars(2, "x")
    lp.add_row({x[0]: 1e16, x[1]: 1.0}, ">=", 1.0, name="big")
    with pytest.raises(ValueError) as err:
        lp.solve()
    assert str(err.value) == "LP huge: HiGHS refused the model"
    with pytest.raises(ValueError, match="^LP huge: HiGHS refused the model$"):
        HighsSession(lp).minimum(np.ones(2))


def test_load_hands_highs_the_row_layout():
    lp = LinearProgram("min", name="layout")
    # a free, a fixed, a bounded and a nonnegative column
    lp.add_vars(4, "x", lb=[-math.inf, 2.0, -1.0, 0.0], ub=[math.inf, 2.0, 3.0, math.inf])
    lp.add_rows([0, 2, 4, 5, 7], [0, 1, 1, 2, 3, 0, 3], [1.0, 2.0, -1.0, 4.0, 1.5, 3.0, -2.0],
                ["<=", ">=", "=", ">="], [1.0, -2.0, 0.5, -20.0], ["a", "b", "c", "d"])
    cost = np.array([1.0, -1.0, 0.5, 2.0])
    lp.objective = cost
    session = HighsSession(lp)
    session.load(cost)
    got = session.highs.getLp()
    layout = RowLayout(lp)
    assert layout.order.tolist() == [0, 1, 3, 2] and layout.flip.tolist() == [1, -1, -1, 1]
    rhs = layout.flip * lp.rhs[layout.order]
    assert got.sense_ == ObjSense.kMinimize and got.offset_ == 0.0
    for part, want in (("col_cost_", cost), ("col_lower_", lp.lower), ("col_upper_", lp.upper),
                       ("row_lower_", np.where(layout.eq, rhs, -math.inf)), ("row_upper_", rhs)):
        assert np.asarray(getattr(got, part)).tobytes() == want.tobytes(), part
    a, want = got.a_matrix_, layout.matrix
    assert a.format_ == MatrixFormat.kColwise and (a.num_row_, a.num_col_) == want.shape
    assert list(a.start_) == want.indptr.tolist()
    assert list(a.index_) == want.indices.tolist()
    assert np.asarray(a.value_).tobytes() == want.data.tobytes()
    assert session.run().tolist() == lp.solve().x.tolist()


def test_writing_into_an_accessor_leaves_the_program_unchanged():
    lp = LinearProgram("min")
    lp.add_vars(2, "x", lb=[0.0, -1.0], ub=[1.0, 2.0], obj=[3.0, 4.0])
    lp.add_rows([0, 1, 2], [0, 1], [1.0, 1.0], ["<=", "="], [5.0, 6.0], ["a", "b"])
    for part in ("objective", "lower", "upper", "rhs", "relations"):
        before = getattr(lp, part).tolist()
        got = getattr(lp, part)
        got[:] = got[::-1].copy()
        assert got.tolist() != before and getattr(lp, part).tolist() == before, part


def test_accessors_follow_every_addition_and_the_cost_setter():
    inf = math.inf
    lp = LinearProgram("min")
    assert lp.objective.size == lp.rhs.size == lp.relations.size == 0
    lp.add_vars(2, "x", lb=-1.0, obj=[1.0, 2.0])
    assert lp.objective.tolist() == [1.0, 2.0] and lp.lower.tolist() == [-1.0, -1.0]
    lp.add_var("z", ub=5.0, obj=3.0)
    assert lp.objective.tolist() == [1.0, 2.0, 3.0]
    assert lp.lower.tolist() == [-1.0, -1.0, 0.0] and lp.upper.tolist() == [inf, inf, 5.0]
    lp.objective = [7.0, 8.0, 9.0]
    assert lp.objective.tolist() == [7.0, 8.0, 9.0]
    lp.add_var("w", obj=4.0)
    assert lp.objective.tolist() == [7.0, 8.0, 9.0, 4.0]
    lp.add_row({0: 1.0}, ">=", 1.0)
    assert lp.rhs.tolist() == [1.0] and lp.relations.tolist() == [">="]
    lp.add_rows([0, 1, 2], [1, 2], [1.0, 1.0], ["=", "<="], [2.0, 3.0], ["b", "c"])
    assert lp.rhs.tolist() == [1.0, 2.0, 3.0] and lp.relations.tolist() == [">=", "=", "<="]


# --------------------------------------------------------------- warm session

@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs(senses=("min",)))
def test_warm_minimum_matches_cold_solves(case):
    lp, costs = case
    session = HighsSession(lp)
    for cost in costs:
        warm = session.minimum(cost)
        lp.objective = cost
        cold = lp.solve()
        if warm is not None:
            assert cold.is_optimal
            assert warm == pytest.approx(cold.objective, abs=1e-9)
        if not cold.is_optimal:
            assert warm is None


def test_warm_minimum_is_none_off_an_optimum_and_reloads_after():
    infeasible = LinearProgram("min")
    x = infeasible.add_var("x")
    infeasible.add_row({x: 1.0}, "<=", -1.0)
    session = HighsSession(infeasible)
    assert session.minimum(np.array([1.0])) is None
    assert session.status is LpStatus.INFEASIBLE

    free = LinearProgram("min")
    free.add_var("x", lb=-math.inf)
    free.add_var("y", lb=-math.inf)
    free.add_row({0: 1.0, 1: 1.0}, ">=", -2.0)
    session = HighsSession(free)
    assert session.minimum(np.array([1.0, 0.0])) is None
    assert session.status is LpStatus.UNBOUNDED
    assert session.minimum(np.array([1.0, 1.0])) == pytest.approx(-2.0, abs=1e-9)
    assert session.minimum(np.array([2.0, 2.0])) == pytest.approx(-4.0, abs=1e-9)
    assert session.status is LpStatus.OPTIMAL


def test_a_left_out_column_prices_in_and_the_answer_is_the_whole_lps():
    # max x0 + 2 x1 + 0.5 x2 over x0 + x1 + x2 <= 1 and x0 - x1 >= -2:
    # without x1 the optimum is x0 = 1, and x1 prices in under its row duals
    lp = LinearProgram("max", name="priced")
    lp.add_vars(3, "x", obj=[1.0, 2.0, 0.5])
    lp.add_rows([0, 3, 5], [0, 1, 2, 0, 1], [1.0, 1.0, 1.0, 1.0, -1.0], ["<=", ">="],
                [1.0, -2.0], ["cap", "tilt"])
    session = HighsSession(lp)
    session.load(-lp.objective, skip=[1, 2])
    assert session.cols.tolist() == [0]
    assert session.run().tolist() == [1.0]
    reduced = session.reduced_costs(np.array([1, 2]))
    assert reduced.tolist() == [-1.0, 0.5]  # HiGHS minimizes -2 x1 - 0.5 x2
    session.add(np.array([1]))
    x = session.run()
    assert session.cols.tolist() == [0, 1] and x.tolist() == [0.0, 1.0]
    assert session.runs == 2 and session.iterations >= 1
    # x2 stays out: it reads 0, and the answer is the whole LP's
    priced = session.answer(x, session.reduced_costs(np.array([2])))
    whole = lp.solve()
    assert priced.x.tolist() == whole.x.tolist() == [0.0, 1.0, 0.0]
    assert priced.objective == whole.objective == 2.0
    assert priced.duals.tolist() == whole.duals.tolist()
    assert priced.dual_objective == whole.dual_objective == 2.0


def _basis_program():
    """min x3 - x0 - 2 x1 + 0.5 x2 + x4 with x1 bounded above only, x2 free
    and x3, in the last row, first: left out, the loaded columns' statuses
    shift.  The ``=`` row is second, so the layout moves it last."""
    lp = LinearProgram("min", name="based")
    lp.add_vars(5, ["x3", "x0", "x1", "x2", "x4"], lb=[0.0, 0.0, -math.inf, -math.inf, 0.0],
                ub=[math.inf, 4.0, 3.0, math.inf, math.inf], obj=[1.0, -1.0, -2.0, 0.5, 1.0])
    lp.add_rows([0, 3, 5, 7, 10], [1, 2, 3, 2, 4, 1, 3, 3, 4, 0],
                [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0], ["<=", "=", ">=", ">="],
                [5.0, 2.0, -1.0, 0.5], ["cap", "pin", "tilt", "floor"])
    return lp


def test_a_basis_read_back_restarts_a_fresh_load_at_the_optimum():
    lp = _basis_program()
    first = HighsSession(lp)
    first.load(lp.objective, skip=[0])
    x = first.run()
    assert first.iterations > 0
    cols, rows = first.basis()
    assert cols.dtype == rows.dtype == np.int8
    # in program order: x3 left out reads LOWER, where it sits; the flipped
    # '>=' row "floor" binds at HiGHS's upper bound, "pin" at its one value
    assert cols.tolist() == [LOWER, BASIC, BASIC, BASIC, LOWER]
    assert rows.tolist() == [UPPER, LOWER, BASIC, UPPER]
    again = HighsSession(lp)
    again.load(lp.objective, skip=[0], basis=(cols, rows))
    assert again.run().tolist() == x.tolist() == [2.5, 2.0, 0.5, 0.0]
    assert again.runs == 1 and again.iterations == 0


@pytest.mark.parametrize("cut", ["cols", "rows"])
def test_a_start_basis_of_the_wrong_length_is_refused(cut):
    lp = _basis_program()
    session = HighsSession(lp)
    session.load(lp.objective)
    assert session.run().tolist() == [1.5, 4.0, 2.0, -1.0, 0.0]  # x3 enters
    cols, rows = session.basis()
    basis = (cols[:-1], rows) if cut == "cols" else (cols, np.append(rows, BASIC))
    with pytest.raises(ValueError, match=r"^LP based: HiGHS refused the start basis$"):
        HighsSession(lp).load(lp.objective, basis=basis)


def test_columns_start_nonbasic_at_a_finite_bound_else_free_at_zero():
    status, value = at_bound(np.array([1.0, -math.inf, -math.inf]),
                             np.array([2.0, 3.0, math.inf]))
    assert status.tolist() == [LOWER, UPPER, ZERO] and value.tolist() == [1.0, 3.0, 0.0]


def test_conflict_names_the_rows_of_one_iis_in_program_order():
    lp = LinearProgram("min")
    x = lp.add_vars(3, "x", ub=1.0)
    # '=' rows go last in HiGHS's layout and '>=' rows are negated; the
    # conflict is rows 1 and 3, one of each
    lp.add_rows(np.arange(7), [x[0], x[1], x[2], x[1], x[0], x[2]],
                [1.0, 1.0, 1.0, 1.0, 1.0, 1.0], ["<=", "=", ">=", "<=", ">=", "<="],
                [0.5, 0.75, 0.0, 0.25, 0.0, 2.0], ["a", "b", "c", "d", "e", "f"])
    session = HighsSession(lp)
    assert session.minimum(np.zeros(3)) is None
    assert session.status is LpStatus.INFEASIBLE
    assert session.conflict().tolist() == [1, 3]


def test_the_highs_binding_names_iis_rows_by_row_priority():
    """The IIS that :meth:`HighsSession.conflict` reads needs these names in
    scipy's HiGHS binding, and its option value 1 must mean row priority."""
    from scipy.optimize._highspy._core import HighsIis, HighsStatus, IisStrategy, _Highs

    assert int(IisStrategy.kIisStrategyFromLpRowPriority) == 1
    assert _Highs().setOptionValue("iis_strategy", 1) == HighsStatus.kOk
    assert list(HighsIis().row_index) == []


# ------------------------------------------------------------------- duality

def test_dualize_recovers_primal_from_marginals():
    lp = LinearProgram("min")
    x0 = lp.add_var("x0", obj=2.0)
    x1 = lp.add_var("x1", obj=3.0)
    lp.add_row({x0: 1.0, x1: 1.0}, ">=", 2.0)
    lp.add_row({x0: 1.0, x1: -1.0}, "=", 0.5)
    primal = lp.solve()
    dual = dualize(lp)
    dsol = dual.solve()
    assert dsol.status is LpStatus.OPTIMAL
    assert dsol.objective == pytest.approx(primal.objective, abs=1e-9)
    # dual row j is the stationarity row of primal variable j
    assert dsol.duals[x0] == pytest.approx(primal.x[x0], abs=1e-8)
    assert dsol.duals[x1] == pytest.approx(primal.x[x1], abs=1e-8)


def test_dualize_strong_duality_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        lp = LinearProgram("min")
        for j in range(n):
            lp.add_var(f"x{j}", obj=float(rng.uniform(0.5, 2.0)))
        for _ in range(m):
            a = rng.uniform(0.0, 1.0, size=n) + 0.05
            lp.add_row((np.arange(n), a), ">=", float(rng.uniform(0.0, 1.0)))
        p = lp.solve()
        d = dualize(lp).solve()
        assert p.status is LpStatus.OPTIMAL and d.status is LpStatus.OPTIMAL
        assert d.objective == pytest.approx(p.objective, abs=1e-8)


def test_dualize_handles_all_sign_types():
    # min 2a - b + 3f  with a >= 0, b <= 0, f free
    lp = LinearProgram("min")
    a = lp.add_var("a", obj=2.0)
    b = lp.add_var("b", lb=-math.inf, ub=0.0, obj=-1.0)
    f = lp.add_var("f", lb=-math.inf, obj=3.0)
    lp.add_row({a: 1.0, b: 1.0, f: 1.0}, "=", 1.0)
    lp.add_row({a: 1.0, b: -1.0}, "<=", 4.0)
    lp.add_row({f: 1.0, b: 1.0}, ">=", -2.0)
    p = lp.solve()
    d = dualize(lp).solve()
    assert p.status is LpStatus.OPTIMAL
    assert d.objective == pytest.approx(p.objective, abs=1e-9)


def test_dualize_rejects_finite_bounds():
    lp = LinearProgram("min")
    lp.add_var("x", lb=0.0, ub=1.0, obj=1.0)
    with pytest.raises(ValueError, match="sign-typed"):
        dualize(lp)


def test_dual_of_dual_value_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        lp = LinearProgram("min")
        for j in range(n):
            lp.add_var(f"x{j}", obj=float(rng.uniform(0.5, 2.0)))
        for _ in range(int(rng.integers(1, 4))):
            a = rng.uniform(0.0, 1.0, size=n) + 0.1
            lp.add_row((np.arange(n), a), ">=", float(rng.uniform(0.2, 1.0)))
        v0 = lp.solve().objective
        v2 = dualize(dualize(lp)).solve().objective
        assert v2 == pytest.approx(v0, abs=1e-8)


def _assert_same_rows(a, b):
    ma, mb = a.row_matrix(), b.row_matrix()
    assert ma.shape == mb.shape
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ma, part), getattr(mb, part))
    assert a.relations.tolist() == b.relations.tolist()
    assert a.rhs.tobytes() == b.rhs.tobytes()
    assert [a.row_name(k) for k in range(a.num_rows)] == \
        [b.row_name(k) for k in range(b.num_rows)]


@st.composite
def csr_blocks(draw):
    """A row block over ``n`` variables: CSR arrays, relations, rhs, names."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 6))
    rows = [draw(st.lists(st.tuples(st.integers(0, n - 1), st.floats(-5, 5)), max_size=6))
            for _ in range(m)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = [j for r in rows for j, _ in r]
    values = [v for r in rows for _, v in r]
    rels = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    rhs = draw(st.lists(st.floats(-10, 10), min_size=m, max_size=m))
    names = draw(st.one_of(st.just([None] * m), st.just([f"b[{k}]" for k in range(m)])))
    return n, indptr, indices, values, rels, rhs, names


@settings(max_examples=150, deadline=None)
@given(csr_blocks())
def test_add_rows_equals_a_loop_of_add_row(block):
    n, indptr, indices, values, rels, rhs, names = block
    bulk, loop = LinearProgram("min"), LinearProgram("min")
    for lp in (bulk, loop):
        lp.add_vars(n, "x")
        lp.add_row({0: 1.0}, "<=", 1.0, name="before")
    rows = bulk.add_rows(indptr, indices, values, rels, rhs, names)
    for k in range(len(rels)):
        lo, hi = indptr[k], indptr[k + 1]
        loop.add_row((indices[lo:hi], values[lo:hi]), rels[k], rhs[k], name=names[k])
    assert list(rows) == list(range(1, 1 + len(rels)))
    _assert_same_rows(bulk, loop)


def _coo_reference(n, indptr, indices, values):
    """The matrix of one CSR block as rows were first stacked: through COO."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return sp.coo_matrix((np.asarray(values, dtype=float), (rows, np.asarray(indices, dtype=int))),
                         shape=(len(indptr) - 1, n)).tocsr()


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    assert a.data.tobytes() == b.data.tobytes()
    for part in ("indices", "indptr"):
        assert np.array_equal(getattr(a, part), getattr(b, part))


def test_a_repeated_column_sums_as_the_coo_build_did():
    # three repeats on column 2, and 1e16 + 1 - 1e16, whose sum depends on its order
    indptr = [0, 5, 5, 8]
    indices = [2, 0, 2, 1, 2, 1, 1, 1]
    values = [0.1, 1.0, 0.2, -3.0, 0.3, 1e16, 1.0, -1e16]
    lp = LinearProgram("min")
    lp.add_vars(3, "x")
    lp.add_rows(indptr, indices, values, "<=", 0.0, ["a", "b", "c"])
    _assert_same_csr(lp.row_matrix(), _coo_reference(3, indptr, indices, values))
    assert lp.row_matrix().nnz == 4


@settings(max_examples=100, deadline=None)
@given(csr_blocks())
def test_row_matrix_equals_the_coo_build(block):
    n, indptr, indices, values, rels, rhs, names = block
    lp = LinearProgram("min")
    lp.add_vars(n, "x")
    lp.add_rows(indptr, indices, values, rels, rhs, names)
    _assert_same_csr(lp.row_matrix(), _coo_reference(n, indptr, indices, values))


def test_blocks_added_between_columns_stack_like_one_block():
    rng = np.random.default_rng(4)
    staged, whole = LinearProgram("min"), LinearProgram("min")
    whole.add_vars(6, "x")
    parts = []
    for width, rows in ((2, 3), (3, 2), (1, 4)):
        staged.add_vars(width, "x")
        n = staged.num_vars
        counts = rng.integers(0, 4, size=rows)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        indices = rng.integers(0, n, size=indptr[-1])
        values = rng.normal(size=indptr[-1])
        names = [f"r{len(parts)}[{k}]" for k in range(rows)]
        staged.add_rows(indptr, indices, values, ">=", 1.0, names)
        staged.add_row((indices[:2], values[:2]), "=", -1.0, name=f"one{len(parts)}")
        parts.append((np.append(counts, min(2, indices.size)),
                      np.concatenate([indices, indices[:2]]),
                      np.concatenate([values, values[:2]]),
                      [">="] * rows + ["="], [1.0] * rows + [-1.0], names + [f"one{len(parts)}"]))
    counts, indices, values, rels, rhs, names = (
        [x for part in parts for x in part[i]] for i in range(6))
    whole.add_rows(np.concatenate(([0], np.cumsum(counts))), indices, values, rels, rhs, names)
    _assert_same_rows(staged, whole)


def test_add_rows_broadcasts_one_relation_and_rhs():
    lp = LinearProgram("min")
    lp.add_vars(3, "x")
    rows = lp.add_rows([0, 2, 3], [0, 2, 1], [1.0, -1.0, 2.0], ">=", 0.5, ["a", "b"])
    assert list(rows) == [0, 1]
    assert lp.relations.tolist() == [">=", ">="]
    assert list(lp.rhs) == [0.5, 0.5]
    assert lp.row_matrix().toarray().tolist() == [[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]]


@pytest.mark.parametrize("args, match", [
    (([0, 1], [0], [1.0], ["<"], [0.0], ["a"]), "relation"),
    (([0, 1], [3], [1.0], ["<="], [0.0], ["a"]), "undeclared"),
    (([0, 1], [-1], [1.0], ["<="], [0.0], ["a"]), "undeclared"),
    (([0, 1, 2], [0, 1], [1.0], ["<="] * 2, [0.0] * 2, ["a", "b"]), "differ in length"),
    (([0, 2], [0], [1.0], ["<="], [0.0], ["a"]), "indptr"),
    (([0, 1], [0], [1.0], ["<=", "<="], [0.0], ["a"]), "needs 1 relations"),
    (([0, 1], [0], [1.0], ["<="], [0.0, 1.0], ["a"]), "needs 1 relations"),
    (([0, 1], [0], [1.0], ["<="], [0.0], ["a", "b"]), "needs 1 relations"),
])
def test_add_rows_rejects_bad_blocks(args, match):
    lp = LinearProgram("min")
    lp.add_vars(3, "x")
    with pytest.raises(ValueError, match=match):
        lp.add_rows(*args)
    assert lp.num_rows == 0


def test_add_rows_names_the_row_with_an_undeclared_variable():
    lp = LinearProgram("min")
    lp.add_vars(2, "x")
    with pytest.raises(ValueError, match="'second'"):
        lp.add_rows([0, 1, 1, 2], [0, 5], [1.0, 1.0], "=", 0.0, ["first", "empty", "second"])


def _dualize_reference(lp):
    """The stationarity rows of :func:`dualize` added one ``add_row`` at a time."""
    sense = lp.sense
    dual = LinearProgram(sense="max" if sense == "min" else "min")
    for k, rel in enumerate(lp.relations):
        if sense == "min":
            lo, hi = {"<=": (-math.inf, 0.0), "=": (-math.inf, math.inf),
                      ">=": (0.0, math.inf)}[rel]
        else:
            lo, hi = {"<=": (0.0, math.inf), "=": (-math.inf, math.inf),
                      ">=": (-math.inf, 0.0)}[rel]
        dual.add_var(name=f"y_{lp.row_name(k)}", lb=lo, ub=hi, obj=lp.rhs[k])
    A = lp.row_matrix().tocsc()
    for j in range(lp.num_vars):
        lo, hi = lp.lower[j], lp.upper[j]
        stype = "nonneg" if lo == 0.0 else ("free" if hi == math.inf else "nonpos")
        rel = {"nonneg": "<=", "free": "=", "nonpos": ">="}[stype]
        if sense == "max":
            rel = {"<=": ">=", "=": "=", ">=": "<="}[rel]
        s, e = A.indptr[j], A.indptr[j + 1]
        dual.add_row((A.indices[s:e], A.data[s:e]), rel, lp.objective[j],
                     name=f"stat_{lp.var_name(j)}")
    return dual


def test_dualize_rows_equal_the_row_by_row_reference():
    rng = np.random.default_rng(11)
    bounds = [(0.0, math.inf), (-math.inf, math.inf), (-math.inf, 0.0)]
    for sense in ("min", "max"):
        for _ in range(10):
            lp = LinearProgram(sense)
            n = int(rng.integers(1, 6))
            for j in range(n):
                lo, hi = bounds[int(rng.integers(0, 3))]
                lp.add_var(f"x{j}", lb=lo, ub=hi, obj=float(rng.normal()))
            for _ in range(int(rng.integers(0, 5))):
                cols = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                lp.add_row((cols, rng.normal(size=cols.size)),
                           ["<=", "=", ">="][int(rng.integers(0, 3))], float(rng.normal()))
            dual, ref = dualize(lp), _dualize_reference(lp)
            _assert_same_rows(dual, ref)
            assert dual.objective.tobytes() == ref.objective.tobytes()
            assert np.array_equal(dual.lower, ref.lower)
            assert np.array_equal(dual.upper, ref.upper)


def test_row_matrix_follows_every_added_row_and_variable():
    lp = LinearProgram("min")
    lp.add_vars(2, "x")
    lp.add_row({0: 1.0, 1: 2.0}, "<=", 1.0)
    first = lp.row_matrix()
    assert lp.row_matrix() is first
    lp.add_rows([0, 1], [1], [3.0], ">=", 0.0, ["r1"])
    assert lp.row_matrix().toarray().tolist() == [[1.0, 2.0], [0.0, 3.0]]
    lp.add_var("z")
    assert lp.row_matrix().shape == (2, 3)
    lp.add_row({2: -1.0}, "=", 0.0)
    assert lp.row_matrix().toarray().tolist() == [[1.0, 2.0, 0.0], [0.0, 3.0, 0.0],
                                                  [0.0, 0.0, -1.0]]


def test_add_vars_takes_arrays_and_names():
    lp = LinearProgram("min")
    lp.add_var("before")
    lb, ub = np.array([0.0, -math.inf, -1.5]), np.array([math.inf, 0.0, 2.0])
    named = lp.add_vars(3, ["a", "b", "c"], lb=lb, ub=ub, obj=[0.1, -0.0, 3.0])
    prefixed = lp.add_vars(2, "z", ub=4.0)
    unnamed = lp.add_vars(2, obj=np.array([1.0, 2.0]))
    assert [list(v) for v in (named, prefixed, unnamed)] == [[1, 2, 3], [4, 5], [6, 7]]
    inf = math.inf
    assert lp.lower.tolist() == [0.0, 0.0, -inf, -1.5, 0.0, 0.0, 0.0, 0.0]
    assert lp.upper.tolist() == [inf, inf, 0.0, 2.0, 4.0, 4.0, inf, inf]
    assert lp.objective.tobytes() == np.array([0.0, 0.1, -0.0, 3.0, 0, 0, 1.0, 2.0]).tobytes()
    assert [lp.var_name(j) for j in range(8)] == \
        ["before", "a", "b", "c", "z[0]", "z[1]", "x6", "x7"]


@pytest.mark.parametrize("lb, ub, names, match", [
    ([0.0, 2.0], [1.0, 1.0], ["a", "b"], r"variable 'b': lb 2\.0 > ub 1\.0"),
    ([0.0, math.nan], 1.0, "x", r"variable 'x\[1\]': lb nan > ub 1\.0"),
    (0.0, [math.nan, 1.0], None, r"variable None: lb 0\.0 > ub nan"),
    (0.0, 1.0, ["a"], "2 variables need 2 names"),
])
def test_add_vars_rejects_bad_bounds_and_names(lb, ub, names, match):
    lp = LinearProgram("min")
    with pytest.raises(ValueError, match=match):
        lp.add_vars(2, names, lb=lb, ub=ub)
    assert lp.num_vars == 0
