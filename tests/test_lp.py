import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prefrobust.lp import (
    DEFAULT_TOL,
    LinearProgram,
    LpStatus,
    _solve_highs,
    dualize,
    warm_session,
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


def test_dump_lists_each_row():
    lp = LinearProgram("min", name="demo")
    x = lp.add_var("x", obj=1.0)
    lp.add_row({x: 2.0}, ">=", 1.0, name="half")
    text = lp.dump()
    assert "half: 2*x >= 1" in text
    assert text.splitlines()[0].startswith("min")


# --------------------------------------------------------------- warm session

_BOUNDS = {"nonneg": (0.0, math.inf), "free": (-math.inf, math.inf)}


@st.composite
def session_programs(draw):
    """A small LP over nonnegative, free and boxed variables with <=, = and
    >= rows, plus a sequence of objectives to drive one session through.

    Right-hand sides come from a point inside the bounds, so most programs
    are feasible; free variables let some objectives run unbounded."""
    n = draw(st.integers(1, 5))
    lp = LinearProgram(draw(st.sampled_from(["min", "max"])))
    x0 = []
    for j in range(n):
        kind = draw(st.sampled_from(["nonneg", "free", "boxed"]))
        if kind == "boxed":
            lo = draw(st.integers(-3, 2)) / 2.0
            lb, ub = lo, lo + draw(st.integers(1, 4)) / 2.0
        else:
            lb, ub = _BOUNDS[kind]
        lp.add_var(f"x{j}", lb=lb, ub=ub)
        x0.append(min(max(draw(st.integers(-4, 4)) / 2.0, lb), ub))
    x0 = np.array(x0)
    for _ in range(draw(st.integers(0, 5))):
        a = np.array([draw(st.integers(-3, 3)) for _ in range(n)], dtype=float)
        rel = draw(st.sampled_from(["<=", "=", ">="]))
        slack = 0.0 if rel == "=" else draw(st.integers(0, 3)) / 2.0
        lp.add_row((np.arange(n), a), rel, a @ x0 + (slack if rel == "<=" else -slack))
    costs = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=2, max_size=5))
    return lp, costs


def _assert_feasible(lp, x, tol=1e-7):
    assert np.all(x >= lp.lower - tol) and np.all(x <= lp.upper + tol)
    act = lp.row_matrix() @ x
    for k, rel in enumerate(lp.relations):
        if rel != ">=":
            assert act[k] <= lp.rhs[k] + tol
        if rel != "<=":
            assert act[k] >= lp.rhs[k] - tol


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(session_programs())
def test_warm_session_matches_cold_solves(case):
    lp, costs = case
    session = warm_session(lp)
    assert session is not None
    for cost in costs:
        for j, c in enumerate(cost):
            lp.set_obj(j, float(c))
        warm = lp.solve(backend=session)
        cold = _solve_highs(lp, DEFAULT_TOL)
        assert warm.status is cold.status
        if cold.is_optimal:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert warm.dual_objective == pytest.approx(cold.dual_objective, abs=1e-9)
            _assert_feasible(lp, warm.x)
            assert warm.duals.shape == (lp.num_rows,)
            assert warm.reduced_costs.shape == (lp.num_vars,)


def test_warm_session_classifies_like_the_cold_backend():
    infeasible = LinearProgram("min")
    x = infeasible.add_var("x", obj=1.0)
    infeasible.add_row({x: 1.0}, "<=", -1.0)
    unbounded = LinearProgram("max")
    unbounded.add_var("x", lb=-math.inf, ub=math.inf, obj=1.0)
    for lp, status in ((infeasible, LpStatus.INFEASIBLE), (unbounded, LpStatus.UNBOUNDED)):
        assert _solve_highs(lp, DEFAULT_TOL).status is status
        assert lp.solve(backend=warm_session(lp)).status is status

    # a row added after an unbounded solve reloads the model
    session = warm_session(unbounded)
    assert unbounded.solve(backend=session).status is LpStatus.UNBOUNDED
    unbounded.add_row({0: 1.0}, "<=", 2.5)
    sol = unbounded.solve(backend=session)
    assert sol.is_optimal and sol.objective == pytest.approx(2.5, abs=1e-9)


def test_warm_session_serves_one_program_only():
    lp = LinearProgram("min")
    lp.add_var("x", obj=1.0)
    other = LinearProgram("min")
    other.add_var("x", obj=1.0)
    with pytest.raises(ValueError, match="only the program"):
        other.solve(backend=warm_session(lp))


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
    assert a.relations == b.relations
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


def test_add_rows_broadcasts_one_relation_and_rhs():
    lp = LinearProgram("min")
    lp.add_vars(3, "x")
    rows = lp.add_rows([0, 2, 3], [0, 2, 1], [1.0, -1.0, 2.0], ">=", 0.5, ["a", "b"])
    assert list(rows) == [0, 1]
    assert lp.relations == [">=", ">="]
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
