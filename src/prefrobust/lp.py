"""Deterministic linear-programming layer.

Every reformulation in this package (metric computations, one-stage worst
cases, scenario-tree programs) bottoms out in a sparse LP assembled from
blocks of rows in CSR form, kept as given until the solver needs the matrix.
:meth:`LinearProgram.solve` hands every program to HiGHS dual simplex via
scipy.optimize.linprog: it handles free variables and equality rows
natively, reports row/bound marginals, and is bit-stable for a fixed input.

Reward certification alone asks for many optimal values over one fixed
polytope, and nothing else of each solve.  For it, :func:`warm_session`
keeps that program loaded in HiGHS: :meth:`HighsSession.minimum` pushes the
changed costs, re-runs dual simplex from the last basis and returns the
optimal value only.  Anything other than a checked optimum comes back as
``None``, and the caller solves that LP cold through :meth:`LinearProgram.solve`,
so infeasible, unbounded and failed programs are classified in one place.
The session needs scipy's private HiGHS binding; where the installed scipy
lacks it, :func:`warm_session` returns ``None``.

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
# session uses it, and certification stays on linprog without it.
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
        return _solve_highs(self, DEFAULT_TOL if tol is None else float(tol))


def _solve_highs(lp: LinearProgram, tol: float) -> LpSolution:
    """HiGHS dual simplex through scipy.linprog."""
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
    # the row flips and the sense flip.
    x = np.asarray(res.x)
    duals = np.zeros(lp.num_rows)
    if A_ub is not None:
        duals[ub_mask] = flip * res.ineqlin.marginals
    if A_eq is not None:
        duals[is_eq] = res.eqlin.marginals
    duals *= sign
    lo, hi = lp.lower, lp.upper
    finite_lo = lo > -math.inf
    finite_hi = hi < math.inf
    dual_obj = float(rhs @ duals)
    dual_obj += float(lo[finite_lo] @ (sign * np.asarray(res.lower.marginals))[finite_lo])
    dual_obj += float(hi[finite_hi] @ (sign * np.asarray(res.upper.marginals))[finite_hi])
    return LpSolution(LpStatus.OPTIMAL, objective=float(lp.objective @ x), x=x, duals=duals,
                      dual_objective=dual_obj, message=res.message)


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
    """The rows and bounds of one program kept loaded in HiGHS, for the
    optimal values of many objectives over them.

    The first :meth:`minimum` loads the model with the options of
    :func:`_solve_highs` (dual simplex, the default feasibility tolerances);
    later calls push only the changed costs and re-run warm from the last
    basis.  The program's own costs and sense are never read, and it must
    not gain rows or variables while the session is in use.
    """

    def __init__(self, lp):
        rels = np.asarray(lp.relations)
        rhs = lp.rhs
        self._row_lower = np.where(rels == LEQ, -math.inf, rhs)
        self._row_upper = np.where(rels == GEQ, math.inf, rhs)
        self._lower, self._upper = lp.lower, lp.upper
        self._matrix = lp.row_matrix().tocsc()
        self._highs = None
        self._cost = None

    def minimum(self, cost):
        """``min cost . x`` over the program, or ``None`` when HiGHS does not
        end optimal or its ``x`` breaks a bound or a row by more than
        linprog's own check allows; the call after a ``None`` reloads the
        model.  ``cost`` is kept to diff the next call against, so it must
        not be modified afterwards."""
        if self._highs is None:
            self._load(cost)
        else:
            changed = np.flatnonzero(cost != self._cost)
            if changed.size:
                self._highs.changeColsCost(
                    changed.size, changed.astype(np.int32), cost[changed])
        self._cost = cost

        h = self._highs
        h.run()
        if h.getModelStatus() == HighsModelStatus.kOptimal:
            sol = h.getSolution()
            x = np.array(sol.col_value)
            rows = np.array(sol.row_value)
            slack = _SESSION_CHECK_TOL
            if (np.all(np.isfinite(x))
                    and np.all(x >= self._lower - slack) and np.all(x <= self._upper + slack)
                    and np.all(rows >= self._row_lower - slack)
                    and np.all(rows <= self._row_upper + slack)):
                return float(cost @ x)
        self._highs = None
        return None

    def _load(self, cost):
        A = self._matrix
        m, n = A.shape
        model = HighsLp()
        model.num_col_ = n
        model.num_row_ = m
        model.a_matrix_.format_ = MatrixFormat.kColwise
        model.a_matrix_.num_col_ = n
        model.a_matrix_.num_row_ = m
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
                ("primal_feasibility_tolerance", DEFAULT_TOL),
                ("dual_feasibility_tolerance", DEFAULT_TOL)):
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
