"""Independent oracles used by the test suite.

Everything here is deliberately written against the *problem statements*,
not against the library code paths it checks: the LP oracle enumerates
vertices with dense linear algebra, the L1 distance integrates piecewise
segments in closed form, the worst-case oracle scans a 1-D mesh, and the
reward-range oracle solves two dense ``linprog`` LPs per reward.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog

FEAS_TOL = 1e-9


def lp_vertex_oracle(lp):
    """Brute-force optimum of a small LP by vertex enumeration.

    Assumes a bounded feasible region (generate instances with finite boxes
    or rows that imply boundedness).  Returns ("optimal", value, x) or
    ("infeasible", None, None).
    """
    n = lp.num_vars
    A = lp.row_matrix().toarray()
    rels = lp.relations
    rhs = lp.rhs

    # All hyperplanes that can be active at a vertex: every row, plus each
    # finite bound as a row.
    eq_planes = []
    ineq_planes = []  # (a, b, kind) with kind in {"<=", ">="}
    for k in range(lp.num_rows):
        if rels[k] == "=":
            eq_planes.append((A[k], rhs[k]))
        else:
            ineq_planes.append((A[k], rhs[k], rels[k]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lp.lower[j]):
            ineq_planes.append((e, lp.lower[j], ">="))
        if np.isfinite(lp.upper[j]):
            ineq_planes.append((e.copy(), lp.upper[j], "<="))

    def feasible(x):
        for a, b in eq_planes:
            if abs(a @ x - b) > FEAS_TOL:
                return False
        for a, b, kind in ineq_planes:
            v = a @ x
            if kind == "<=" and v > b + FEAS_TOL:
                return False
            if kind == ">=" and v < b - FEAS_TOL:
                return False
        return True

    need = n - len(eq_planes)
    c = lp.objective
    best_val, best_x = None, None
    found = False
    base_rows = [p[0] for p in eq_planes]
    base_rhs = [p[1] for p in eq_planes]
    if need < 0:
        need = 0
    for combo in itertools.combinations(range(len(ineq_planes)), need):
        M = np.array(base_rows + [ineq_planes[i][0] for i in combo])
        v = np.array(base_rhs + [ineq_planes[i][1] for i in combo])
        if M.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(M, v)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or np.max(np.abs(M @ x - v)) > 1e-7:
            continue
        if not feasible(x):
            continue
        found = True
        val = float(c @ x)
        better = (best_val is None
                  or (lp.sense == "min" and val < best_val - 1e-12)
                  or (lp.sense == "max" and val > best_val + 1e-12))
        if better:
            best_val, best_x = val, x
    if not found:
        return "infeasible", None, None
    return "optimal", best_val, best_x


def pl_l1_distance(y, a_vals, b_vals):
    """Exact integral of |f - g| for two piecewise-linear functions sharing
    the breakpoint grid ``y`` (values ``a_vals``, ``b_vals``), splitting each
    segment at a sign change of the difference."""
    d = np.asarray(a_vals, dtype=float) - np.asarray(b_vals, dtype=float)
    total = 0.0
    for i in range(len(y) - 1):
        w = y[i + 1] - y[i]
        dl, dr = d[i], d[i + 1]
        if dl * dr >= 0.0:
            total += 0.5 * abs(dl + dr) * w
        else:
            # root of the linear difference inside the segment
            t = dl / (dl - dr)
            total += 0.5 * (abs(dl) * t + abs(dr) * (1.0 - t)) * w
    return total


def worst_case_value_scan(grid3, nominal_mid, radius, L, Ltilde, outcome,
                          distance_fn, mesh=1e-3):
    """Brute-force worst case for an N=3 grid with one free utility value.

    The only degree of freedom of a normalized PL utility on a 3-point grid
    is the middle value alpha2.  Scans alpha2 over a mesh, keeps the
    candidates that satisfy concavity, the slope caps and the ball constraint
    (checked with the supplied ``distance_fn``), and returns the minimum
    utility at ``outcome``.
    """
    y1, y2, y3 = grid3
    best = None
    for a2 in np.arange(0.0, 1.0 + mesh / 2, mesh):
        b2 = a2 / (y2 - y1)
        b3 = (1.0 - a2) / (y3 - y2)
        if b2 < -1e-12 or b3 < -1e-12:
            continue
        if b2 > L + 1e-12 or b3 > L + 1e-12:
            continue
        if b3 > b2 + 1e-12:  # concavity
            continue
        if abs(b3 - b2) / (y3 - y1) > Ltilde + 1e-12:
            continue
        if distance_fn(np.array([0.0, a2, 1.0])) > radius + 1e-9:
            continue
        val = np.interp(outcome, grid3, [0.0, a2, 1.0])
        if best is None or val < best:
            best = float(val)
    return best


def decision_linprog(tree, bounds, constraints, cost, last=math.inf):
    """One dense ``linprog`` LP over the decision set: the boxes ``bounds[s]
    = (lb, ub)`` plus the ``constraints`` rows of the nodes up to ``last``,
    minimizing the sum over ``s`` of ``cost[s] . x(s)``."""
    nodes = sorted(bounds)
    sizes = [len(bounds[s][0]) for s in nodes]
    start = dict(zip(nodes, np.cumsum([0] + sizes)))
    n = sum(sizes)
    box = [(lo, hi) for s in nodes for lo, hi in zip(*bounds[s])]
    c = np.zeros(n)
    for s, coef in cost.items():
        c[start[s]:start[s] + len(coef)] = coef
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for con in constraints:
        if con.node > last:
            continue
        row = np.zeros(n)
        for k, v in con.coef_self.items():
            row[start[con.node] + k] += v
        for k, v in con.coef_parent.items():
            row[start[tree.nodes[con.node].parent] + k] += v
        if con.rel == "=":
            eq_rows.append(row)
            eq_rhs.append(con.rhs)
        else:
            sign = 1.0 if con.rel == "<=" else -1.0
            ub_rows.append(sign * row)
            ub_rhs.append(sign * con.rhs)
    res = linprog(c, A_ub=np.array(ub_rows) if ub_rows else None,
                  b_ub=ub_rhs or None, A_eq=np.array(eq_rows) if eq_rows else None,
                  b_eq=eq_rhs or None, bounds=box, method="highs",
                  options={"presolve": False})
    assert res.status in (0, 2, 3), res.message
    return res


def reward_ranges_oracle(tree, bounds, rewards, constraints, a, b, tol=1e-9):
    """Certify every reward ``coef . x(parent) + offset`` inside ``[a, b]``
    (within ``tol``) over the decision set: the boxes ``bounds[s] = (lb, ub)``
    plus the ``constraints`` rows.  Two ``linprog`` LPs per reward, in id
    order, with no shortcut from the box and no range shared between rewards.

    Returns ``None`` when every reward passes, else ``(kind, node, ends)``
    for the first fault: ``("empty", node, None)`` when the decision set is
    empty, ``node`` being the first node at which the rows of the nodes up to
    it have no solution; ``("unbounded", reward, None)``; or ``("domain",
    reward, (lo, hi))``.
    """
    def first_infeasible_prefix():
        for last in sorted({con.node for con in constraints}):
            if decision_linprog(tree, bounds, constraints, {}, last).status == 2:
                return last
        return None

    for i in sorted(rewards):
        coef, offset = rewards[i]
        parent = tree.nodes[i].parent
        ends = []
        for sign in (1.0, -1.0):
            res = decision_linprog(tree, bounds, constraints,
                                   {parent: sign * np.asarray(coef, dtype=float)})
            if res.status == 2:
                return "empty", first_infeasible_prefix(), None
            if res.status == 3:
                return "unbounded", i, None
            ends.append(sign * res.fun + offset)
        if ends[0] < a - tol or ends[1] > b + tol:
            return "domain", i, tuple(ends)
    return None
