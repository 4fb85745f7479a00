"""Deterministic linear-programming layer.

Every reformulation in this package (metric computations, one-stage worst
cases, scenario-tree programs) bottoms out in a sparse LP assembled row by
row.  The default backend is HiGHS dual simplex via scipy.optimize.linprog:
it handles free variables and equality rows natively, reports row/bound
marginals, and is bit-stable for a fixed input.  The backend is pluggable
through ``solve(backend=...)`` so a different engine can be swapped in
without touching the builders.

The second backend is a warm session (:func:`warm_session`): one program is
loaded into HiGHS once, and each later solve pushes only the changed
objective coefficients and re-runs dual simplex from the last basis.  It is
meant for sequences of solves over one fixed polytope, such as the two
reward-range LPs per reward that certify a multistage problem.  Every status
other than optimal is re-solved cold through the linprog backend, so
infeasible, unbounded and failed programs are classified exactly alike.  The
session needs scipy's private HiGHS binding; where the installed scipy lacks
it, :func:`warm_session` returns ``None`` and callers stay on linprog.

The module also provides a mechanical dualizer.  Several published dual
formulations in this problem family carry typographical sign slips, so
downstream code never transcribes duals by hand: it calls :func:`dualize`
on the primal it already trusts.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# scipy >= 1.15 exposes its HiGHS binding as a private module; only the warm
# session uses it, and certification falls back to linprog without it.
try:
    from scipy.optimize._highspy._core import (
        HighsLp,
        HighsModelStatus,
        MatrixFormat,
        _Highs,
        simplex_constants,
    )
except ImportError:
    _Highs = None

_SESSION_API = ("passModel", "changeColsCost", "run", "getModelStatus", "getSolution",
                "setOptionValue")

log = logging.getLogger(__name__)

LEQ = "<="
EQ = "="
GEQ = ">="
_RELS = (LEQ, EQ, GEQ)

DEFAULT_TOL = 1e-8


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    #: numerical breakdown or iteration limit -- never silently treated as solved
    FAILED = "failed"


@dataclass
class LpSolution:
    """Result of one solve.

    ``duals`` holds one multiplier per row, in the row order of the program,
    with the orientation that makes the dual objective equal the primal
    objective at an optimum:

    * minimization: ``>=`` rows have duals >= 0, ``<=`` rows <= 0;
    * maximization: the reverse.

    ``reduced_costs`` are the bound multipliers under the same orientation,
    and ``dual_objective`` is ``b'y + l'rc_lower + u'rc_upper`` so the strong
    duality gap ``|objective - dual_objective|`` can be checked directly.
    """

    status: LpStatus
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    dual_objective: float | None = None
    message: str = ""

    @property
    def is_optimal(self):
        return self.status is LpStatus.OPTIMAL


class LinearProgram:
    """A sparse LP with named variables and rows.

    Variables carry plain box bounds (default ``[0, inf)``); rows are
    ``coefs . x  rel  rhs`` with ``rel`` one of ``<=``, ``=``, ``>=``.
    Rows and variables keep their insertion indices, which is what the
    dualizer's positional correspondence relies on.
    """

    def __init__(self, sense="min", name=""):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.name = name
        self._obj = []
        self._lb = []
        self._ub = []
        self._var_names = []
        self._row_cols = []
        self._row_vals = []
        self._rels = []
        self._rhs = []
        self._row_names = []

    # ------------------------------------------------------------------ build
    @property
    def num_vars(self):
        return len(self._obj)

    @property
    def num_rows(self):
        return len(self._rhs)

    def add_var(self, name=None, lb=0.0, ub=math.inf, obj=0.0):
        """Add one variable, returning its index."""
        if not (lb <= ub):
            raise ValueError(f"variable {name!r}: lb {lb} > ub {ub}")
        self._obj.append(float(obj))
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._var_names.append(name)
        return len(self._obj) - 1

    def add_vars(self, n, name=None, lb=0.0, ub=math.inf, obj=0.0):
        """Add ``n`` variables sharing bounds; returns an index array."""
        base = self.num_vars
        objs = np.broadcast_to(np.asarray(obj, dtype=float), (n,))
        for i in range(n):
            nm = f"{name}[{i}]" if name is not None else None
            self.add_var(nm, lb=lb, ub=ub, obj=float(objs[i]))
        return np.arange(base, base + n)

    def set_obj(self, idx, coef):
        self._obj[idx] = float(coef)

    def add_row(self, coefs, rel, rhs, name=None):
        """Add a row.  ``coefs`` is a mapping var index -> coefficient or a
        pair of (indices, values) sequences.  Returns the row index."""
        if rel not in _RELS:
            raise ValueError(f"relation must be one of {_RELS}, got {rel!r}")
        if isinstance(coefs, dict):
            idx = np.fromiter(coefs.keys(), dtype=np.int64, count=len(coefs))
            val = np.fromiter(coefs.values(), dtype=float, count=len(coefs))
        else:
            idx, val = coefs
            idx = np.asarray(idx, dtype=np.int64)
            val = np.asarray(val, dtype=float)
        if idx.size != val.size:
            raise ValueError("index and value lists differ in length")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
            raise ValueError(f"row {name!r} references undeclared variable")
        self._row_cols.append(idx)
        self._row_vals.append(val)
        self._rels.append(rel)
        self._rhs.append(float(rhs))
        self._row_names.append(name)
        return len(self._rhs) - 1

    def add_rows(self, indptr, indices, values, rels, rhs, names):
        """Add a block of rows in CSR form: row ``k`` has the coefficients
        ``values[indptr[k]:indptr[k+1]]`` on the variables
        ``indices[indptr[k]:indptr[k+1]]``.  ``rels`` and ``rhs`` give one
        entry per row, or one for all; ``names`` gives one per row.
        The rows equal those of an :meth:`add_row` call per row with the same
        coefficients in the same order.  Returns the row indices."""
        indptr = np.asarray(indptr, dtype=np.int64)
        idx = np.array(indices, dtype=np.int64)
        val = np.array(values, dtype=float)
        m = indptr.size - 1
        if (indptr.ndim != 1 or m < 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0)
                or indptr[-1] != idx.size):
            raise ValueError("indptr must run from 0 to the entry count, nondecreasing")
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("index and value lists differ in length")
        rels = [rels] * m if isinstance(rels, str) else list(rels)
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 0:
            rhs = np.full(m, float(rhs))
        names = list(names)
        if not (len(rels) == len(names) == m and rhs.shape == (m,)):
            raise ValueError(f"a block of {m} rows needs {m} relations, rhs and names")
        bad = set(rels).difference(_RELS)
        if bad:
            raise ValueError(f"relation must be one of {_RELS}, got {sorted(bad)!r}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
            first = np.flatnonzero((idx < 0) | (idx >= self.num_vars))[0]
            row = int(np.searchsorted(indptr, first, side="right")) - 1
            raise ValueError(f"row {names[row]!r} references undeclared variable")
        start = self.num_rows
        if m == 0:
            return np.arange(start, start)
        self._row_cols.extend(np.split(idx, indptr[1:-1]))
        self._row_vals.extend(np.split(val, indptr[1:-1]))
        self._rels.extend(rels)
        self._rhs.extend(rhs.tolist())
        self._row_names.extend(names)
        return np.arange(start, start + m)

    # ---------------------------------------------------------------- access
    @property
    def objective(self):
        return np.asarray(self._obj, dtype=float)

    @property
    def lower(self):
        return np.asarray(self._lb, dtype=float)

    @property
    def upper(self):
        return np.asarray(self._ub, dtype=float)

    @property
    def relations(self):
        return list(self._rels)

    @property
    def rhs(self):
        return np.asarray(self._rhs, dtype=float)

    def row_matrix(self):
        """The full constraint matrix as CSR (one row per added row)."""
        m, n = self.num_rows, self.num_vars
        if m == 0:
            return sp.csr_matrix((0, n))
        counts = [c.size for c in self._row_cols]
        rows = np.repeat(np.arange(m), counts)
        cols = np.concatenate(self._row_cols) if rows.size else np.empty(0, dtype=np.int64)
        vals = np.concatenate(self._row_vals) if rows.size else np.empty(0)
        return sp.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsr()

    def var_name(self, j):
        return self._var_names[j] or f"x{j}"

    def row_name(self, k):
        return self._row_names[k] or f"r{k}"

    def dump(self):
        """Plain-text rendering, one constraint per line (debugging aid)."""
        out = [f"{self.sense} " + " + ".join(
            f"{c:g}*{self.var_name(j)}" for j, c in enumerate(self._obj) if c != 0.0)]
        for k in range(self.num_rows):
            terms = " + ".join(
                f"{v:g}*{self.var_name(j)}"
                for j, v in zip(self._row_cols[k], self._row_vals[k]))
            out.append(f"{self.row_name(k)}: {terms or '0'} {self._rels[k]} {self._rhs[k]:g}")
        for j in range(self.num_vars):
            lo, hi = self._lb[j], self._ub[j]
            if (lo, hi) != (0.0, math.inf):
                out.append(f"bound: {lo:g} <= {self.var_name(j)} <= {hi:g}")
        return "\n".join(out)

    # ----------------------------------------------------------------- solve
    def solve(self, tol=None, backend=None):
        """Solve and return an :class:`LpSolution`.

        ``backend`` may be a callable with the same signature as
        :func:`_solve_highs` for tests or alternative engines.
        """
        if self.num_vars == 0:
            raise ValueError("cannot solve an LP with no variables")
        backend = backend or _solve_highs
        return backend(self, DEFAULT_TOL if tol is None else float(tol))


def _solve_highs(lp: LinearProgram, tol: float) -> LpSolution:
    """Default backend: HiGHS dual simplex through scipy.linprog."""
    n = lp.num_vars
    sign = 1.0 if lp.sense == "min" else -1.0
    c = sign * lp.objective

    A = lp.row_matrix()
    rels = np.asarray(lp.relations)
    rhs = lp.rhs

    is_eq = rels == EQ
    is_le = rels == LEQ
    is_ge = rels == GEQ
    # >= rows are negated into <= form; remember the flip to restore duals.
    ub_mask = is_le | is_ge
    flip = np.where(is_ge[ub_mask], -1.0, 1.0)

    A_ub = b_ub = A_eq = b_eq = None
    if ub_mask.any():
        A_ub = sp.diags(flip) @ A[ub_mask]
        b_ub = flip * rhs[ub_mask]
    if is_eq.any():
        A_eq = A[is_eq]
        b_eq = rhs[is_eq]

    bounds = [(lo if lo > -math.inf else None, hi if hi < math.inf else None)
              for lo, hi in zip(lp.lower, lp.upper)]

    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": tol,
            "dual_feasibility_tolerance": tol,
        },
    )

    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE, message=res.message)
    if res.status == 3:
        return LpSolution(LpStatus.UNBOUNDED, message=res.message)
    if res.status != 0 or res.x is None:
        log.warning("LP %s: solver breakdown (%s)", lp.name or "<unnamed>", res.message)
        return LpSolution(LpStatus.FAILED, message=res.message)

    # scipy reports marginals for the minimized, <=-oriented problem; undo
    # the row flips here and the sense flip in _optimal_solution.
    duals = np.zeros(lp.num_rows)
    if A_ub is not None:
        duals[ub_mask] = flip * res.ineqlin.marginals
    if A_eq is not None:
        duals[is_eq] = res.eqlin.marginals
    return _optimal_solution(lp, np.asarray(res.x), duals, np.asarray(res.lower.marginals),
                             np.asarray(res.upper.marginals), res.message)


def _optimal_solution(lp, x, duals, lower_m, upper_m, message):
    """Orient the multipliers of ``min sign * objective`` as :class:`LpSolution`
    documents them.  ``duals`` holds one multiplier per original row."""
    sign = 1.0 if lp.sense == "min" else -1.0
    obj = float(lp.objective @ x)
    duals = duals * sign
    rc = sign * (lower_m + upper_m)

    rhs = lp.rhs
    dual_obj = float(rhs @ duals)
    lo, hi = lp.lower, lp.upper
    lo_m = sign * lower_m
    hi_m = sign * upper_m
    finite_lo = lo > -math.inf
    finite_hi = hi < math.inf
    dual_obj += float(lo[finite_lo] @ lo_m[finite_lo])
    dual_obj += float(hi[finite_hi] @ hi_m[finite_hi])

    return LpSolution(LpStatus.OPTIMAL, objective=obj, x=x, duals=duals,
                      reduced_costs=rc, dual_objective=dual_obj, message=message)


# ---------------------------------------------------------------- warm session
# The slack linprog's own post-solve check allows: 10 * sqrt(its default tol 1e-9).
_SESSION_CHECK_TOL = 10 * math.sqrt(1e-9)


def warm_session(lp):
    """A :class:`HighsSession` for ``lp``, or ``None`` when the installed scipy
    lacks the HiGHS binding it needs."""
    if _Highs is None or not all(hasattr(_Highs, name) for name in _SESSION_API):
        return None
    return HighsSession(lp)


class HighsSession:
    """One program kept loaded in HiGHS across objective changes.

    Pass it as ``lp.solve(backend=session)``.  The first call loads rows,
    bounds and costs with the options of :func:`_solve_highs` (dual simplex,
    the same feasibility tolerances); later calls push only the changed costs
    and re-run warm from the last basis.  Adding rows or variables, or asking
    for another tolerance, reloads the model.  A solve that HiGHS does not
    report optimal, that fails linprog's own feasibility check, or whose
    bound multipliers cannot be placed, is re-solved cold by
    :func:`_solve_highs` and the next call reloads.
    """

    def __init__(self, lp):
        self.lp = lp
        self._highs = None
        self._key = None
        self._cost = None

    def __call__(self, lp, tol):
        if lp is not self.lp:
            raise ValueError("a HighsSession solves only the program it was built for")
        cost = (1.0 if lp.sense == "min" else -1.0) * lp.objective
        key = (lp.num_rows, lp.num_vars, tol)
        if self._highs is None or key != self._key:
            self._load(cost, tol)
            self._key = key
        else:
            changed = np.flatnonzero(cost != self._cost)
            if changed.size:
                self._highs.changeColsCost(
                    changed.size, changed.astype(np.int32), cost[changed])
        self._cost = cost

        h = self._highs
        h.run()
        if h.getModelStatus() != HighsModelStatus.kOptimal:
            self._highs = None
            return _solve_highs(lp, tol)
        sol = h.getSolution()
        x = np.array(sol.col_value)
        rows = np.array(sol.row_value)
        lower, upper = self._lower, self._upper
        slack = _SESSION_CHECK_TOL
        if not (np.all(np.isfinite(x))
                and np.all(x >= lower - slack) and np.all(x <= upper + slack)
                and np.all(rows >= self._row_lower - slack)
                and np.all(rows <= self._row_upper + slack)):
            self._highs = None
            return _solve_highs(lp, tol)

        # linprog books a nonbasic column's dual on the bound its basis status
        # names.  HiGHS leaves such a column exactly on that bound and zeroes
        # the dual of a basic one, so x tells the bound without reading the
        # basis; a dual off every bound of a bounded column goes cold.
        col_dual = np.array(sol.col_dual)
        at_lower = x == lower
        at_upper = ~at_lower & (x == upper)
        if np.any((col_dual != 0.0) & ~at_lower & ~at_upper
                  & (np.isfinite(lower) | np.isfinite(upper))):
            self._highs = None
            return _solve_highs(lp, tol)
        return _optimal_solution(
            lp, x, np.array(sol.row_dual), np.where(at_lower, col_dual, 0.0),
            np.where(at_upper, col_dual, 0.0), "Optimal (warm HiGHS session)")

    def _load(self, cost, tol):
        lp = self.lp
        rels = np.asarray(lp.relations)
        rhs = lp.rhs
        self._row_lower = np.where(rels == LEQ, -math.inf, rhs)
        self._row_upper = np.where(rels == GEQ, math.inf, rhs)
        self._lower, self._upper = lp.lower, lp.upper
        A = lp.row_matrix().tocsc()

        model = HighsLp()
        model.num_col_ = lp.num_vars
        model.num_row_ = lp.num_rows
        model.a_matrix_.format_ = MatrixFormat.kColwise
        model.a_matrix_.num_col_ = lp.num_vars
        model.a_matrix_.num_row_ = lp.num_rows
        model.a_matrix_.start_ = A.indptr
        model.a_matrix_.index_ = A.indices
        model.a_matrix_.value_ = A.data
        model.col_cost_ = cost
        model.col_lower_ = self._lower
        model.col_upper_ = self._upper
        model.row_lower_ = self._row_lower
        model.row_upper_ = self._row_upper

        h = _Highs()
        for name, value in (
                ("output_flag", False),
                ("log_to_console", False),
                ("solver", "simplex"),
                ("simplex_strategy", int(simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
                ("primal_feasibility_tolerance", float(tol)),
                ("dual_feasibility_tolerance", float(tol))):
            h.setOptionValue(name, value)
        h.passModel(model)
        self._highs = h


# --------------------------------------------------------------------- duality
_SIGN_FREE = "free"
_SIGN_NONNEG = "nonneg"
_SIGN_NONPOS = "nonpos"


def _sign_type(lo, hi, name):
    if lo == 0.0 and hi == math.inf:
        return _SIGN_NONNEG
    if lo == -math.inf and hi == math.inf:
        return _SIGN_FREE
    if lo == -math.inf and hi == 0.0:
        return _SIGN_NONPOS
    raise ValueError(
        f"dualize() needs sign-typed bounds; variable {name} has [{lo}, {hi}]. "
        "Fold finite bounds into explicit rows first.")


def dualize(lp: LinearProgram) -> LinearProgram:
    """Mechanical LP dual.

    Requires every variable bound to be one of ``[0, inf)``, ``(-inf, inf)``
    or ``(-inf, 0]``.  The correspondence is positional: dual variable ``k``
    multiplies primal row ``k``, and dual row ``j`` is the stationarity
    condition of primal variable ``j`` — so a solve of the dual returns the
    primal solution in its row marginals.  Strong duality ties the two
    objective values together; tests rely on both facts.
    """
    n, m = lp.num_vars, lp.num_rows
    sense = lp.sense
    dual = LinearProgram(sense="max" if sense == "min" else "min",
                         name=f"dual({lp.name})" if lp.name else "dual")

    rels = lp.relations
    rhs = lp.rhs
    for k in range(m):
        rel = rels[k]
        if sense == "min":
            lo, hi = {LEQ: (-math.inf, 0.0), EQ: (-math.inf, math.inf),
                      GEQ: (0.0, math.inf)}[rel]
        else:
            lo, hi = {LEQ: (0.0, math.inf), EQ: (-math.inf, math.inf),
                      GEQ: (-math.inf, 0.0)}[rel]
        dual.add_var(name=f"y_{lp.row_name(k)}", lb=lo, ub=hi, obj=rhs[k])

    # Column view of the primal matrix for the stationarity rows.
    A_csc = lp.row_matrix().tocsc()
    lower, upper = lp.lower, lp.upper
    if sense == "min":
        rel_of = {_SIGN_NONNEG: LEQ, _SIGN_FREE: EQ, _SIGN_NONPOS: GEQ}
    else:
        rel_of = {_SIGN_NONNEG: GEQ, _SIGN_FREE: EQ, _SIGN_NONPOS: LEQ}
    rels = [rel_of[_sign_type(lower[j], upper[j], lp.var_name(j))] for j in range(n)]
    dual.add_rows(A_csc.indptr, A_csc.indices, A_csc.data, rels, lp.objective,
                  [f"stat_{lp.var_name(j)}" for j in range(n)])
    return dual
