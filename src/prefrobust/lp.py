"""Deterministic linear-programming layer.

Every reformulation in this package (metric computations, one-stage worst
cases, scenario-tree programs) bottoms out in a sparse LP assembled from
blocks of rows in CSR form, kept as given until the solver needs the matrix.
Every program reaches HiGHS dual simplex through scipy's HiGHS binding and
one loader, :meth:`HighsSession.load`, which lays the rows out, sets the
options as ``scipy.optimize.linprog`` does for ``method="highs-ds"``, so a
solve with the defaults returns linprog's answer bit for bit, and hands
HiGHS the model in one call to the array overload of ``passModel`` (checked
on scipy 1.17.1 with HiGHS 1.12.0).  Tree-wide holistic LPs
are solved with ``presolve=False``, which is linprog's option of that name:
on them HiGHS's presolve costs more time than it saves.  Those whose tree
carries a Kantorovich ball at every node are also priced with Devex
(``devex=True``, linprog's ``simplex_dual_edge_weight_strategy="devex"``),
which takes fewer HiGHS seconds on them than its default dual steepest
edge; on questionnaire trees it takes more.  A session can also load a
program without some of its columns and add them as they price in
(column generation), which is how the tree LP's answer columns are
solved (see ``multistage._priced_solve``), and start from a given basis
(``multistage._start_basis``).  HiGHS handles free variables
and equality rows natively and is bit-stable for a fixed input.

:meth:`LinearProgram.solve` reads back ``x``, row duals and the dual
objective (:meth:`HighsSession.answer`).  The package no longer reads that
dual objective itself: a tree-wide answer's certificate recomputes the gap
from ``x`` and the duals (``multistage._pair_value``).  Reward
certification asks for many optimal values over one fixed polytope, and
nothing else of each solve: :class:`HighsSession` keeps that program
loaded, and :meth:`HighsSession.minimum` pushes the changed costs, re-runs
dual simplex from the last basis and returns the optimal value only.  Both
paths vet HiGHS's ``x`` with one post-solve check and classify the run in
the session.  A warm run without a checked optimum is re-run once, cold,
before the session answers ``None``; after an infeasible run the session
names conflicting rows through HiGHS's IIS.  The loader's
row layout (:class:`RowLayout`) depends on the matrix and relations alone,
so programs that differ only in costs and right-hand sides load from one.

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
    HighsBasis,
    HighsBasisStatus,
    HighsIis,
    HighsModelStatus,
    HighsStatus,
    MatrixFormat,
    ObjSense,
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
    and name per row; :meth:`row_matrix` stacks them into one matrix.  Costs,
    bounds, relations and right-hand sides are kept as the arrays each call
    adds, joined on first access until the next call extends them.
    """

    def __init__(self, sense="min", name=""):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.name = name
        self._var_names = []
        self._row_names = []
        self._blocks = []  # (indptr, indices, values) per add_rows call
        # per part, the arrays each add_vars or add_rows call adds; _joined
        # caches each part joined, and row_matrix(), until the next addition
        self._parts = {part: [np.empty(0, dtype=str if part == "rels" else float)]
                       for part in ("obj", "lb", "ub", "rhs", "rels")}
        self._joined = {}

    def _extend(self, **arrays):
        self._joined.pop("matrix", None)
        for part, values in arrays.items():
            self._parts[part].append(values)
            self._joined.pop(part, None)

    def _array(self, part):
        """The arrays of ``part`` joined, made once until the part grows; it
        is shared, so the accessors hand out copies."""
        if part not in self._joined:
            self._joined[part] = np.concatenate(self._parts[part])
        return self._joined[part]

    # ------------------------------------------------------------------ build
    @property
    def num_vars(self):
        return len(self._var_names)

    @property
    def num_rows(self):
        return len(self._row_names)

    def add_var(self, name=None, lb=0.0, ub=math.inf, obj=0.0):
        """Add one variable, returning its index."""
        return int(self.add_vars(1, [name], lb=lb, ub=ub, obj=obj)[0])

    def add_vars(self, n, name=None, lb=0.0, ub=math.inf, obj=0.0):
        """Add ``n`` variables in one call; returns an index array.  ``name``
        is a prefix (names ``name[i]``), a list of ``n`` names, or ``None``;
        ``lb``, ``ub`` and ``obj`` are scalars or arrays of ``n`` entries."""
        lb, ub, obj = (np.array(np.broadcast_to(np.asarray(v, dtype=float), (n,)))
                       for v in (lb, ub, obj))
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
        self._extend(obj=obj, lb=lb, ub=ub)
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
        rels = np.full(m, rels) if isinstance(rels, str) else np.array(rels, dtype=str)
        rhs = np.array(rhs, dtype=float)
        if rhs.ndim == 0:
            rhs = np.full(m, float(rhs))
        names = list(names)
        if not (rels.shape == rhs.shape == (m,) and len(names) == m):
            raise ValueError(f"a block of {m} rows needs {m} relations, rhs and names")
        bad = ~((rels == LEQ) | (rels == EQ) | (rels == GEQ))
        if bad.any():
            raise ValueError(f"relation must be one of {_RELS}, got "
                             f"{sorted(set(rels[bad].tolist()))!r}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_vars):
            first = np.flatnonzero((idx < 0) | (idx >= self.num_vars))[0]
            row = int(np.searchsorted(indptr, first, side="right")) - 1
            raise ValueError(f"row {names[row]!r} references undeclared variable")
        start = self.num_rows
        if m == 0:
            return np.arange(start, start)
        self._blocks.append((indptr, idx, val))
        self._extend(rhs=rhs, rels=rels)
        self._row_names.extend(names)
        return np.arange(start, start + m)

    # ---------------------------------------------------------------- access
    # Each accessor returns a copy, which the caller may write into.
    @property
    def objective(self):
        return self._array("obj").copy()

    @objective.setter
    def objective(self, cost):
        cost = np.array(cost, dtype=float)
        if cost.shape != (self.num_vars,):
            raise ValueError(f"need {self.num_vars} costs, got shape {cost.shape}")
        self._parts["obj"] = [cost]
        self._joined.pop("obj", None)

    @property
    def lower(self):
        return self._array("lb").copy()

    @property
    def upper(self):
        return self._array("ub").copy()

    @property
    def relations(self):
        return self._array("rels").copy()

    @property
    def rhs(self):
        return self._array("rhs").copy()

    def row_matrix(self):
        """The full constraint matrix as CSR: the row blocks stacked, column
        indices sorted and repeated columns of a row summed.  It is built
        once per shape and shared by every caller until a row or variable is
        added, so callers must not modify it.
        """
        if "matrix" not in self._joined:
            m, n = self.num_rows, self.num_vars
            if m == 0:
                mat = sp.csr_matrix((0, n))
            else:
                indptrs, indices, values = zip(*self._blocks)
                ends = np.cumsum([0] + [p[-1] for p in indptrs])
                indptr = np.concatenate([[0]] + [p[1:] + e for p, e in zip(indptrs, ends)])
                mat = sp.csr_matrix((np.concatenate(values), np.concatenate(indices), indptr),
                                    shape=(m, n))
                mat.sum_duplicates()
            self._joined["matrix"] = mat
        return self._joined["matrix"]

    def var_name(self, j):
        return self._var_names[j] or f"x{j}"

    def row_name(self, k):
        return self._row_names[k] or f"r{k}"

    @property
    def var_names(self):
        """Every :meth:`var_name`, in variable order."""
        return [name or f"x{j}" for j, name in enumerate(self._var_names)]

    @property
    def row_names(self):
        """Every :meth:`row_name`, in row order."""
        return [name or f"r{k}" for k, name in enumerate(self._row_names)]

    # ----------------------------------------------------------------- solve
    def solve(self, tol=None, presolve=True, devex=False):
        """Solve with HiGHS dual simplex and return an :class:`LpSolution`.
        ``presolve=False`` skips HiGHS's presolve and ``devex=True`` prices
        with Devex (linprog's ``simplex_dual_edge_weight_strategy="devex"``);
        the defaults keep linprog's options, and so its answer bit for bit."""
        if self.num_vars == 0:
            raise ValueError("cannot solve an LP with no variables")
        sign = 1.0 if self.sense == "min" else -1.0
        session = HighsSession(self, DEFAULT_TOL if tol is None else float(tol),
                               presolve=presolve, devex=devex)
        session.load(sign * self.objective)
        x = session.run()
        if x is None:
            if session.status is LpStatus.FAILED:
                log.warning("LP %s: solver breakdown (%s)", self.name or "<unnamed>",
                            session.message)
            return LpSolution(session.status, message=session.message)
        return session.answer(x)


# ----------------------------------------------------------------------- HiGHS
# The options linprog sets for method="highs-ds", apart from presolve, the
# dual pricing and the feasibility tolerances, which are per session.  With
# presolve on and HiGHS's own choice of pricing (the defaults) a cold solve is
# linprog's bit for bit.  Holistic tree LPs run without presolve, and those
# of all-ball trees with Devex pricing, for the reasons given at
# multistage._solve_big.
_OPTIONS = (("output_flag", False), ("log_to_console", False), ("solver", "simplex"),
            ("simplex_strategy", int(simplex_constants.SimplexStrategy.kSimplexStrategyDual)))
_COLWISE, _MINIMIZE = int(MatrixFormat.kColwise), int(ObjSense.kMinimize)
_DEVEX = int(simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex)
# The slack linprog's own post-solve check allows: 10 * sqrt(its default tol 1e-9).
_CHECK_TOL = 10 * math.sqrt(1e-9)
# HiGHS's basis statuses (HighsBasisStatus) by their small-int codes
_BASIS = {int(status): status for status in HighsBasisStatus.__members__.values()}
LOWER, BASIC, UPPER, ZERO = (int(HighsBasisStatus.kLower), int(HighsBasisStatus.kBasic),
                             int(HighsBasisStatus.kUpper), int(HighsBasisStatus.kZero))
_STATUS = {HighsModelStatus.kOptimal: LpStatus.OPTIMAL,
           HighsModelStatus.kInfeasible: LpStatus.INFEASIBLE,
           HighsModelStatus.kUnbounded: LpStatus.UNBOUNDED}


def at_bound(lower, upper):
    """The nonbasic status and value of columns with bounds ``lower`` and
    ``upper``: at the lower bound (``LOWER``) where it is finite, else at
    the upper one (``UPPER``) where that is, else free at 0 (``ZERO``)."""
    low, up = lower > -math.inf, upper < math.inf
    status = np.where(low, LOWER, np.where(up, UPPER, ZERO)).astype(np.int8)
    return status, np.where(low, lower, np.where(up, upper, 0.0))


def _vector(values):
    """A solution vector read from HiGHS, which hands it over as a list, as
    an array: faster than ``np.array``; read once per run."""
    return np.fromiter(values, float, count=len(values))


def _require_finite(lp, cost, rhs, mat):
    """Refuse a NaN or infinite cost, coefficient or right-hand side, naming
    the program and the entry: HiGHS would take it, and may end optimal."""
    def coefficient(k):
        row = int(np.searchsorted(mat.indptr, k, side="right")) - 1
        return f"the coefficient of {lp.var_name(mat.indices[k])} in {lp.row_name(row)}"

    for values, where in ((cost, lambda k: f"the cost of {lp.var_name(k)}"),
                          (mat.data, coefficient),
                          (rhs, lambda k: f"the rhs of {lp.row_name(k)}")):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"LP {lp.name or '<unnamed>'}: {where(bad[0])} is "
                             f"{float(values[bad[0]])!r}")


class RowLayout:
    """One program's rows and bounds as HiGHS receives them, in linprog's
    layout: the ``<=`` rows and the negated ``>=`` rows in program order,
    then the ``=`` rows.  HiGHS row ``k`` is program row ``order[k]`` times
    ``flip[k]``, an equality where ``eq[k]``; ``matrix`` holds the rows so
    laid out, in CSC form.  Costs and right-hand sides are not part of it, so
    programs that differ only in those share one layout."""

    def __init__(self, lp):
        rels = lp.relations
        eq = rels == EQ
        self.order = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(eq)])
        self.flip = np.where(rels[self.order] == GEQ, -1.0, 1.0)
        self.eq = eq[self.order]
        self.lower, self.upper = lp.lower, lp.upper
        mat = lp.row_matrix()[self.order]  # a copy
        mat.data *= np.repeat(self.flip, np.diff(mat.indptr))
        self.matrix = mat.tocsc()


class HighsSession:
    """The rows and bounds of one program loaded in HiGHS.

    :meth:`load` and :meth:`run` are the one path into HiGHS, for the cold
    solves of :meth:`LinearProgram.solve` too, and :meth:`run` classifies
    each end; :meth:`answer` reads an optimal run back as the program's
    :class:`LpSolution`.  :meth:`minimum` keeps the model loaded for the
    optimal values of many objectives: later calls push only the changed
    costs and re-run warm from the last basis.  A load may leave columns
    out, at 0: :meth:`reduced_costs` prices them with the last run's row
    duals, and :meth:`add` loads those that price in, for a warm re-run
    (column generation).  Only :meth:`answer` reads the program's own
    costs.  The program must not gain rows or variables while the session
    is in use.  ``layout`` is the program's :class:`RowLayout`; without it
    each load lays the rows out anew and keeps only ``order`` and ``flip``,
    and the laid-out columns it leaves out.  ``presolve`` is linprog's
    option of that name, on by default; ``devex`` sets linprog's
    ``simplex_dual_edge_weight_strategy`` to ``"devex"`` instead of leaving
    HiGHS's own choice.  ``runs`` and ``iterations`` count the session's
    HiGHS runs and their simplex iterations.
    """

    def __init__(self, lp, tol=DEFAULT_TOL, layout=None, presolve=True, devex=False):
        self._lp, self._tol, self._layout = lp, tol, layout
        self._options = _OPTIONS + (("presolve", "on" if presolve else "off"),)
        if devex:
            self._options += (("simplex_dual_edge_weight_strategy", _DEVEX),)
        self.highs = self.solution = self._cost = self.status = None
        self.runs = self.iterations = 0

    def load(self, cost, rhs=None, skip=(), basis=None):
        """Load the program into a fresh HiGHS instance, to minimize
        ``cost . x`` subject to its rows with the right-hand sides ``rhs``
        (by default its own).  HiGHS row ``k`` is program row ``order[k]``
        times ``flip[k]``.  The program columns ``skip`` are left out, so
        they sit at 0, until :meth:`add` loads them; HiGHS column ``j`` is
        program column ``cols[j]`` (``cols`` is ``None`` when none is left
        out).  ``basis``, as :meth:`basis` reads one (a flipped row keeps
        its status), starts the first run instead of HiGHS's slack basis.  A
        model or basis HiGHS refuses (``kError``, not ``kWarning``) is
        refused naming the program."""
        lp = self._lp
        rhs = lp.rhs if rhs is None else rhs
        _require_finite(lp, cost, rhs, lp.row_matrix())
        layout = RowLayout(lp) if self._layout is None else self._layout
        self.order, self.flip = layout.order, layout.flip
        rhs = layout.flip * rhs[layout.order]
        self.row_lower = np.where(layout.eq, rhs, -math.inf)
        self.row_upper = rhs
        self.lower, self.upper = layout.lower, layout.upper
        A, self.cols, self._left_out, self._cost = layout.matrix, None, None, cost
        if np.size(skip):
            keep = np.ones(lp.num_vars, dtype=bool)
            keep[skip] = False
            out = np.flatnonzero(~keep)
            self._left_out = out, A[:, out], self.lower[out], self.upper[out]
            self.cols = np.flatnonzero(keep)
            A, cost = A[:, self.cols], cost[self.cols]
            self.lower, self.upper = self.lower[self.cols], self.upper[self.cols]
        self.highs = _Highs()
        for name, value in self._options + (("primal_feasibility_tolerance", self._tol),
                                            ("dual_feasibility_tolerance", self._tol)):
            self.highs.setOptionValue(name, value)
        n = A.shape[1]
        # an empty integrality array is refused, so every column is marked continuous
        status = self.highs.passModel(
            n, A.shape[0], A.nnz, _COLWISE, _MINIMIZE, 0.0, cost, self.lower, self.upper,
            self.row_lower, self.row_upper, A.indptr.astype(np.int32, copy=False),
            A.indices.astype(np.int32, copy=False), A.data, np.zeros(n, np.int32))
        if status == HighsStatus.kError:
            self.highs = None
            raise ValueError(f"LP {lp.name or '<unnamed>'}: HiGHS refused the model")
        if basis is not None:
            start, (cols, rows) = HighsBasis(), basis
            start.valid, start.alien = True, False  # checked, not repaired
            if np.shape(cols) == (lp.num_vars,) and np.shape(rows) == (lp.num_rows,):
                # else HiGHS gets no statuses, which it refuses
                cols = cols if self.cols is None else cols[self.cols]
                start.col_status = [_BASIS[k] for k in cols.tolist()]
                start.row_status = [_BASIS[k] for k in rows[self.order].tolist()]
            if self.highs.setBasis(start) == HighsStatus.kError:
                self.highs = None
                raise ValueError(f"LP {lp.name or '<unnamed>'}: HiGHS refused the start basis")

    def basis(self):
        """The last run's basis: the HiGHS status codes (``LOWER``,
        ``BASIC``, ``UPPER``, ``ZERO``) of the program's columns and of its
        rows, in program order.  A column left out reads ``LOWER``, where it
        sits."""
        basis = self.highs.getBasis()
        cols = np.full(self._lp.num_vars, LOWER, np.int8)
        cols[slice(None) if self.cols is None else self.cols] = np.fromiter(
            map(int, basis.col_status), np.int8)
        rows = np.empty(self._lp.num_rows, np.int8)
        rows[self.order] = np.fromiter(map(int, basis.row_status), np.int8)
        return cols, rows

    def _columns(self, cols):
        """The laid-out matrix columns and the bounds of the program
        columns ``cols``, left out of the load."""
        out, A, lower, upper = self._left_out
        pos = np.searchsorted(out, cols)
        return A[:, pos], lower[pos], upper[pos]

    def reduced_costs(self, cols):
        """The reduced costs ``cost_j - a_j . y`` of the program columns
        ``cols``, left out of the load, under the last optimal run's row
        duals ``y``: in HiGHS's form (minimized, rows laid out), where a
        column at its lower bound prices in when its reduced cost is
        negative."""
        return self._cost[cols] - self._columns(cols)[0].T @ self.row_dual

    def add(self, cols):
        """Load the program columns ``cols``, left out so far, into the
        loaded instance, which keeps its basis: the next :meth:`run`
        starts from it, the new columns nonbasic at their lower bounds."""
        A, lower, upper = self._columns(cols)
        status = self.highs.addCols(
            cols.size, self._cost[cols], lower, upper, A.nnz,
            A.indptr[:-1].astype(np.int32), A.indices.astype(np.int32), A.data)
        if status == HighsStatus.kError:
            raise ValueError(f"LP {self._lp.name or '<unnamed>'}: HiGHS refused columns")
        self.cols = np.concatenate((self.cols, cols))
        self.lower = np.concatenate((self.lower, lower))
        self.upper = np.concatenate((self.upper, upper))

    def run(self):
        """Run HiGHS and classify the end in ``status`` and ``message``;
        return ``x`` of the loaded columns, or ``None`` unless it ends
        optimal with an ``x`` within ``_CHECK_TOL`` of every bound and row
        (linprog's own check)."""
        h = self.highs
        h.run()
        self.runs += 1
        # one field, not getInfo()'s copy of all of them (~1 us against
        # ~14 us); HiGHS answers kWarning, and no count, without valid info
        valid, count = h.getInfoValue("simplex_iteration_count")
        self.iterations += count if valid == HighsStatus.kOk else 0
        self.status = _STATUS.get(h.getModelStatus(), LpStatus.FAILED)
        self.message = h.modelStatusToString(h.getModelStatus())
        if self.status is LpStatus.OPTIMAL:
            self.solution = solution = h.getSolution()
            x, rows, self.row_dual = map(_vector, (solution.col_value, solution.row_value,
                                                   solution.row_dual))
            if (np.all((x >= self.lower - _CHECK_TOL) & (x <= self.upper + _CHECK_TOL))
                    and np.all((rows >= self.row_lower - _CHECK_TOL)
                               & (rows <= self.row_upper + _CHECK_TOL))):
                return x
            self.status = LpStatus.FAILED
            self.message += f", but x strays from a bound or row by more than {_CHECK_TOL:.2e}"
        return None

    def answer(self, x, reduced=()):
        """The program's :class:`LpSolution` from the ``x`` that the last
        :meth:`run` returned, for the costs the program was loaded with
        (its own objective, negated for a maximization).  A column left out
        reads 0 in ``x``; ``reduced`` holds the reduced costs of those
        columns, in program order, which stand for their column duals.
        Each sits at its lower bound 0 with no upper one, so it adds
        nothing to the dual objective."""
        lp = self._lp
        sign = 1.0 if lp.sense == "min" else -1.0
        col_dual = _vector(self.solution.col_dual)
        if self.cols is not None:
            left_out = np.ones(lp.num_vars, dtype=bool)
            left_out[self.cols] = False
            full_x, full_dual = np.zeros(lp.num_vars), np.empty(lp.num_vars)
            full_x[self.cols], full_dual[self.cols], full_dual[left_out] = x, col_dual, reduced
            x, col_dual = full_x, full_dual
        # HiGHS reports multipliers for the minimized, <=-oriented rows; undo
        # the row flips and the sense flip.  A bound multiplier is the column
        # dual of a variable sitting at that bound (a fixed one books it by
        # the sign of its dual, as HiGHS does).
        duals = np.zeros(lp.num_rows)
        duals[self.order] = self.flip * self.row_dual
        duals *= sign
        lo, hi = lp.lower, lp.upper
        at_lo = (x == lo) & ((x != hi) | (col_dual >= 0.0))
        at_hi = (x == hi) & ~at_lo
        finite_lo, finite_hi = lo > -math.inf, hi < math.inf
        dual_obj = float(lp.rhs @ duals)
        dual_obj += float(lo[finite_lo] @ (sign * np.where(at_lo, col_dual, 0.0))[finite_lo])
        dual_obj += float(hi[finite_hi] @ (sign * np.where(at_hi, col_dual, 0.0))[finite_hi])
        return LpSolution(LpStatus.OPTIMAL, objective=float(lp.objective @ x), x=x,
                          duals=duals, dual_objective=dual_obj, message=self.message)

    def minimum(self, cost):
        """``min cost . x`` over the program, or ``None`` when the last
        :meth:`run` has no ``x``, a warm one being re-run cold in a fresh
        instance first; ``status`` says why.  ``cost`` is kept to diff the
        next call against, so it must not be modified afterwards."""
        x = None
        if self.highs is not None:
            changed = np.flatnonzero(cost != self._cost)
            if changed.size:
                self.highs.changeColsCost(changed.size, changed.astype(np.int32), cost[changed])
            x = self.run()
        if x is None:
            self.load(cost)
            x = self.run()
        self._cost = cost
        return None if x is None else float(cost @ x)

    def conflict(self):
        """After an infeasible run, the program rows of one irreducible
        infeasible subset, in program order; empty if HiGHS names none.  The
        default strategy names none; row priority (1) does."""
        self.highs.setOptionValue("iis_strategy", 1)
        iis = HighsIis()
        self.highs.getIis(iis)
        return np.sort(self.order[np.asarray(iis.row_index, dtype=np.int64)])


# --------------------------------------------------------------------- duality
def dualize(lp: LinearProgram) -> LinearProgram:
    """Mechanical LP dual.

    Requires every variable bound to be one of ``[0, inf)``, ``(-inf, inf)``
    or ``(-inf, 0]``.  The correspondence is positional: dual variable ``k``
    multiplies primal row ``k``, and dual row ``j`` is the stationarity
    condition of primal variable ``j`` — so a solve of the dual returns the
    primal solution in its row marginals.  Strong duality ties the two
    objective values together; tests rely on both facts.
    """
    m = lp.num_rows
    sense = lp.sense
    dual = LinearProgram(sense="max" if sense == "min" else "min",
                         name=f"dual({lp.name})" if lp.name else "dual")

    # a row's relation fixes the sign of its multiplier
    of_nonneg, of_nonpos = (GEQ, LEQ) if sense == "min" else (LEQ, GEQ)
    rels = lp.relations
    dual.add_vars(m, [f"y_{name}" for name in lp.row_names],
                  lb=np.where(rels == of_nonneg, 0.0, -math.inf),
                  ub=np.where(rels == of_nonpos, 0.0, math.inf), obj=lp.rhs)

    # a variable's sign fixes the relation of its stationarity row
    lower, upper, names = lp.lower, lp.upper, lp.var_names
    nonneg = (lower == 0.0) & (upper == math.inf)
    free = (lower == -math.inf) & (upper == math.inf)
    nonpos = (lower == -math.inf) & (upper == 0.0)
    bad = np.flatnonzero(~(nonneg | free | nonpos))
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"dualize() needs sign-typed bounds; variable {names[j]} has "
            f"[{float(lower[j])}, {float(upper[j])}]. Fold finite bounds into explicit rows first.")
    for_nonneg, for_nonpos = (LEQ, GEQ) if sense == "min" else (GEQ, LEQ)
    rels = np.where(nonneg, for_nonneg, np.where(free, EQ, for_nonpos))
    # Column view of the primal matrix for the stationarity rows.
    A_csc = lp.row_matrix().tocsc()
    dual.add_rows(A_csc.indptr, A_csc.indices, A_csc.data, rels, lp.objective,
                  [f"stat_{name}" for name in names])
    return dual
