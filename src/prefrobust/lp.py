"""Deterministic linear-programming layer.

Every reformulation in this package (metric computations, one-stage worst
cases, scenario-tree programs) bottoms out in a sparse LP assembled from
blocks of rows in CSR form, kept as given until the solver needs the matrix.
Every program reaches HiGHS dual simplex through scipy's HiGHS binding and
one loader, which lays the rows out and sets the options as
``scipy.optimize.linprog`` does for ``method="highs-ds"``, so each solve
returns linprog's answer bit for bit.  HiGHS handles free variables and
equality rows natively and is bit-stable for a fixed input.

:meth:`LinearProgram.solve` reads back ``x``, row duals and the dual
objective.  Reward certification asks for many optimal values over one
fixed polytope, and nothing else of each solve: :class:`HighsSession` keeps
that program loaded, and :meth:`HighsSession.minimum` pushes the changed
costs, re-runs dual simplex from the last basis and returns the optimal
value only.  Both paths vet HiGHS's ``x`` with one post-solve check.  A
session answers ``None`` for anything other than a checked optimum, and the
caller solves that LP cold, so infeasible, unbounded and failed programs
are classified in one place.

The module also provides a mechanical dualizer.  Several published dual
formulations in this problem family carry typographical sign slips, so
downstream code never transcribes duals by hand: it calls :func:`dualize`
on the primal it already trusts.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy._core import (
    HighsLp,
    HighsModelStatus,
    MatrixFormat,
    _Highs,
    simplex_constants,
)

# Used only by perfbench/layers.py, which wraps this module global by name.
from scipy.optimize import linprog  # noqa: F401

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

    ``dual_objective`` is ``b'y + l'r_lower + u'r_upper``, with the bound
    multipliers ``r`` under the same orientation, so the strong duality gap
    ``|objective - dual_objective|`` can be checked directly.
    """

    status: LpStatus
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
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
    dualizer's positional correspondence relies on.  Rows are stored as the
    CSR blocks :meth:`add_rows` receives, with one relation, right-hand side
    and name per row; :meth:`row_matrix` stacks them into one matrix.
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
        self._blocks = []  # (indptr, indices, values) per add_rows call
        self._rels = []
        self._rhs = []
        self._row_names = []
        self._matrix = None  # row_matrix() until the next row or variable

    # ------------------------------------------------------------------ build
    @property
    def num_vars(self):
        return len(self._obj)

    @property
    def num_rows(self):
        return len(self._rhs)

    def add_var(self, name=None, lb=0.0, ub=math.inf, obj=0.0):
        """Add one variable, returning its index."""
        return int(self.add_vars(1, [name], lb=lb, ub=ub, obj=obj)[0])

    def add_vars(self, n, name=None, lb=0.0, ub=math.inf, obj=0.0):
        """Add ``n`` variables in one call; returns an index array.  ``name``
        is a prefix (names ``name[i]``), a list of ``n`` names, or ``None``;
        ``lb``, ``ub`` and ``obj`` are scalars or arrays of ``n`` entries."""
        lb, ub, obj = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (lb, ub, obj))
        if name is None or isinstance(name, str):
            names = [None if name is None else f"{name}[{i}]" for i in range(n)]
        elif len(name) == n:
            names = list(name)
        else:
            raise ValueError(f"{n} variables need {n} names, got {len(name)}")
        # written so that a NaN bound fails too
        bad = np.flatnonzero(~(lb <= ub))
        if bad.size:
            k = bad[0]
            raise ValueError(f"variable {names[k]!r}: lb {lb[k]} > ub {ub[k]}")
        base = self.num_vars
        self._matrix = None
        self._obj.extend(obj.tolist())
        self._lb.extend(lb.tolist())
        self._ub.extend(ub.tolist())
        self._var_names.extend(names)
        return np.arange(base, base + n)

    def add_row(self, coefs, rel, rhs, name=None):
        """Add a row.  ``coefs`` is a mapping var index -> coefficient or a
        pair of (indices, values) sequences.  Returns the row index."""
        idx, val = (list(coefs), list(coefs.values())) if isinstance(coefs, dict) else coefs
        return int(self.add_rows([0, np.size(idx)], idx, val, [rel], [rhs], [name])[0])

    def add_rows(self, indptr, indices, values, rels, rhs, names):
        """Add a block of rows in CSR form: row ``k`` has the coefficients
        ``values[indptr[k]:indptr[k+1]]`` on the variables
        ``indices[indptr[k]:indptr[k+1]]``.  ``rels`` and ``rhs`` give one
        entry per row, or one for all; ``names`` gives one per row.  The
        block is stored as given; a column repeated within a row is summed
        when :meth:`row_matrix` stacks the blocks.  Returns the row indices."""
        indptr = np.array(indptr, dtype=np.int64)
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
        self._matrix = None
        self._blocks.append((indptr, idx, val))
        self._rels.extend(rels)
        self._rhs.extend(rhs.tolist())
        self._row_names.extend(names)
        return np.arange(start, start + m)

    # ---------------------------------------------------------------- access
    @property
    def objective(self):
        return np.asarray(self._obj, dtype=float)

    @objective.setter
    def objective(self, cost):
        cost = np.asarray(cost, dtype=float)
        if cost.shape != (self.num_vars,):
            raise ValueError(f"need {self.num_vars} costs, got shape {cost.shape}")
        self._obj = cost.tolist()

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
        """The full constraint matrix as CSR: the row blocks stacked, column
        indices sorted and repeated columns of a row summed.  It is built
        once per shape and shared by every caller until a row or variable is
        added, so callers must not modify it.
        """
        if self._matrix is None:
            m, n = self.num_rows, self.num_vars
            if m == 0:
                self._matrix = sp.csr_matrix((0, n))
            else:
                indptrs, indices, values = zip(*self._blocks)
                ends = np.cumsum([0] + [p[-1] for p in indptrs])
                indptr = np.concatenate([[0]] + [p[1:] + e for p, e in zip(indptrs, ends)])
                mat = sp.csr_matrix((np.concatenate(values), np.concatenate(indices), indptr),
                                    shape=(m, n))
                mat.sum_duplicates()
                self._matrix = mat
        return self._matrix

    def restricted(self, rows, cols, objective, rhs):
        """A new program made of the rows ``rows`` over the variables ``cols``
        (index arrays, kept in the given order), with the costs ``objective``
        and right-hand sides ``rhs``.  Coefficients on variables outside
        ``cols`` are dropped; names, bounds and relations are copied."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        objective = np.asarray(objective, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if objective.shape != cols.shape or rhs.shape != rows.shape:
            raise ValueError("need one cost per variable and one rhs per row")
        mat = self.row_matrix()[rows][:, cols]
        mat.sort_indices()
        sub = LinearProgram(self.sense, self.name)
        sub.add_vars(cols.size, [self._var_names[j] for j in cols], lb=self.lower[cols],
                     ub=self.upper[cols], obj=objective)
        sub.add_rows(mat.indptr, mat.indices, mat.data, [self._rels[k] for k in rows], rhs,
                     [self._row_names[k] for k in rows])
        sub._matrix = mat
        return sub

    def var_name(self, j):
        return self._var_names[j] or f"x{j}"

    def row_name(self, k):
        return self._row_names[k] or f"r{k}"

    def dump(self):
        """Plain-text rendering, one constraint per line (debugging aid)."""
        out = [f"{self.sense} " + " + ".join(
            f"{c:g}*{self.var_name(j)}" for j, c in enumerate(self._obj) if c != 0.0)]
        mat = self.row_matrix()
        for k in range(self.num_rows):
            lo, hi = mat.indptr[k], mat.indptr[k + 1]
            terms = " + ".join(
                f"{v:g}*{self.var_name(j)}"
                for j, v in zip(mat.indices[lo:hi], mat.data[lo:hi]))
            out.append(f"{self.row_name(k)}: {terms or '0'} {self._rels[k]} {self._rhs[k]:g}")
        for j in range(self.num_vars):
            lo, hi = self._lb[j], self._ub[j]
            if (lo, hi) != (0.0, math.inf):
                out.append(f"bound: {lo:g} <= {self.var_name(j)} <= {hi:g}")
        return "\n".join(out)

    # ----------------------------------------------------------------- solve
    def solve(self, tol=None):
        """Solve with HiGHS dual simplex and return an :class:`LpSolution`."""
        if self.num_vars == 0:
            raise ValueError("cannot solve an LP with no variables")
        sign = 1.0 if self.sense == "min" else -1.0
        session = HighsSession(self, DEFAULT_TOL if tol is None else float(tol))
        session.load(sign * self.objective)
        x = session.run()
        status = session.highs.getModelStatus()
        message = session.highs.modelStatusToString(status)
        if status == HighsModelStatus.kInfeasible:
            return LpSolution(LpStatus.INFEASIBLE, message=message)
        if status == HighsModelStatus.kUnbounded:
            return LpSolution(LpStatus.UNBOUNDED, message=message)
        if x is None:
            if status == HighsModelStatus.kOptimal:
                message += f", but x strays from a bound or row by more than {_CHECK_TOL:.2e}"
            log.warning("LP %s: solver breakdown (%s)", self.name or "<unnamed>", message)
            return LpSolution(LpStatus.FAILED, message=message)

        # HiGHS reports multipliers for the minimized, <=-oriented rows; undo
        # the row flips and the sense flip.  A bound multiplier is the column
        # dual of a variable sitting at that bound (a fixed one books it by
        # the sign of its dual, as HiGHS does).
        duals = np.zeros(self.num_rows)
        duals[session.order] = session.flip * np.array(session.solution.row_dual)
        duals *= sign
        col_dual = np.array(session.solution.col_dual)
        lo, hi = self.lower, self.upper
        at_lo = (x == lo) & ((x != hi) | (col_dual >= 0.0))
        at_hi = (x == hi) & ~at_lo
        finite_lo, finite_hi = lo > -math.inf, hi < math.inf
        dual_obj = float(self.rhs @ duals)
        dual_obj += float(lo[finite_lo] @ (sign * np.where(at_lo, col_dual, 0.0))[finite_lo])
        dual_obj += float(hi[finite_hi] @ (sign * np.where(at_hi, col_dual, 0.0))[finite_hi])
        return LpSolution(LpStatus.OPTIMAL, objective=float(self.objective @ x), x=x,
                          duals=duals, dual_objective=dual_obj, message=message)


# ----------------------------------------------------------------------- HiGHS
# The options linprog sets for method="highs-ds"; the feasibility tolerances
# are per model.
_OPTIONS = (("output_flag", False), ("log_to_console", False), ("presolve", "on"),
            ("solver", "simplex"),
            ("simplex_strategy", int(simplex_constants.SimplexStrategy.kSimplexStrategyDual)))
# The slack linprog's own post-solve check allows: 10 * sqrt(its default tol 1e-9).
_CHECK_TOL = 10 * math.sqrt(1e-9)


def _require_finite(lp, cost, mat):
    """Refuse a NaN or infinite cost, coefficient or right-hand side, naming
    the program and the entry: HiGHS would take it, and may end optimal."""
    def coefficient(k):
        row = int(np.searchsorted(mat.indptr, k, side="right")) - 1
        return f"the coefficient of {lp.var_name(mat.indices[k])} in {lp.row_name(row)}"

    for values, where in ((cost, lambda k: f"the cost of {lp.var_name(k)}"),
                          (mat.data, coefficient),
                          (lp.rhs, lambda k: f"the rhs of {lp.row_name(k)}")):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"LP {lp.name or '<unnamed>'}: {where(bad[0])} is "
                             f"{float(values[bad[0]])!r}")


class HighsSession:
    """The rows and bounds of one program loaded in HiGHS.

    :meth:`load` and :meth:`run` are the one path into HiGHS, for the cold
    solves of :meth:`LinearProgram.solve` too.  :meth:`minimum` keeps the
    model loaded for the optimal values of many objectives: later calls push
    only the changed costs and re-run warm from the last basis.  The
    program's own costs and sense are never read, and it must not gain rows
    or variables while the session is in use.
    """

    def __init__(self, lp, tol=DEFAULT_TOL):
        self._lp, self._tol = lp, tol
        self.highs = self.solution = self._cost = None

    def load(self, cost):
        """Load the program into a fresh HiGHS instance, to minimize
        ``cost . x``.  Rows sit in linprog's layout: the ``<=`` rows and the
        negated ``>=`` rows in program order, then the ``=`` rows; HiGHS row
        ``k`` is program row ``order[k]`` times ``flip[k]``."""
        lp = self._lp
        mat = lp.row_matrix()
        _require_finite(lp, cost, mat)
        rels = np.asarray(lp.relations, dtype=str)
        eq = rels == EQ
        self.order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
        self.flip = np.where(rels[self.order] == GEQ, -1.0, 1.0)
        rhs = self.flip * lp.rhs[self.order]
        self.row_lower = np.where(eq[self.order], rhs, -math.inf)
        self.row_upper = rhs
        self.lower, self.upper = lp.lower, lp.upper
        mat = mat[self.order]  # a copy
        mat.data *= np.repeat(self.flip, np.diff(mat.indptr))
        A = mat.tocsc()

        model = HighsLp()
        model.num_row_, model.num_col_ = A.shape
        model.col_cost_, model.col_lower_, model.col_upper_ = cost, self.lower, self.upper
        model.row_lower_, model.row_upper_ = self.row_lower, self.row_upper
        a = model.a_matrix_  # HiGHS's own matrix, filled in place
        a.format_, (a.num_row_, a.num_col_) = MatrixFormat.kColwise, A.shape
        a.start_, a.index_, a.value_ = A.indptr, A.indices, A.data
        self.highs = _Highs()
        for name, value in _OPTIONS + (("primal_feasibility_tolerance", self._tol),
                                       ("dual_feasibility_tolerance", self._tol)):
            self.highs.setOptionValue(name, value)
        self.highs.passModel(model)

    def run(self):
        """Run HiGHS; ``x``, or ``None`` unless it ends optimal with an ``x``
        within ``_CHECK_TOL`` of every bound and row (linprog's own check)."""
        h = self.highs
        h.run()
        if h.getModelStatus() != HighsModelStatus.kOptimal:
            return None
        self.solution = h.getSolution()
        x = np.array(self.solution.col_value)
        rows = np.array(self.solution.row_value)
        if (np.all((x >= self.lower - _CHECK_TOL) & (x <= self.upper + _CHECK_TOL))
                and np.all((rows >= self.row_lower - _CHECK_TOL)
                           & (rows <= self.row_upper + _CHECK_TOL))):
            return x
        return None

    def minimum(self, cost):
        """``min cost . x`` over the program, or ``None`` when :meth:`run`
        has no ``x``; the call after a ``None`` reloads the model.  ``cost``
        is kept to diff the next call against, so it must not be modified
        afterwards."""
        if self.highs is None:
            self.load(cost)
        else:
            changed = np.flatnonzero(cost != self._cost)
            if changed.size:
                self.highs.changeColsCost(changed.size, changed.astype(np.int32), cost[changed])
        self._cost = cost
        x = self.run()
        if x is None:
            self.highs = None
            return None
        return float(cost @ x)


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

    # a row's relation fixes the sign of its multiplier
    rels = np.array(lp.relations, dtype=str)
    nonneg, nonpos = (GEQ, LEQ) if sense == "min" else (LEQ, GEQ)
    dual.add_vars(m, [f"y_{lp.row_name(k)}" for k in range(m)],
                  lb=np.where(rels == nonneg, 0.0, -math.inf),
                  ub=np.where(rels == nonpos, 0.0, math.inf), obj=lp.rhs)

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
