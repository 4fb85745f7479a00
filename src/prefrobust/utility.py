"""Utility functions on a compact interval and distances between them.

Two families live here: closed-form utilities (linear, exponential,
quadratic, min-of-affine) used as ground truth, and normalized nondecreasing
piecewise-linear (PL) utilities, the class every optimization routine works
over.  Normalization means u(a) = 0 and u(b) = 1 on the domain [a, b].

Distances between PL utilities, viewed as distributions of the "random
variable" with CDF-like increments beta_j * dy:

* ``kantorovich_exact`` — the L1 distance integral |u - v|, computed in
  closed form by splitting segments at sign changes; for normalized
  monotone functions this equals the Kantorovich (1-Lipschitz test
  function) distance.
* ``kolmogorov`` — sup distance, attained at a merged breakpoint.
* ``kantorovich_lp`` — the LP outer approximation that the worst-case
  machinery embeds: test-function values and segment integrals are relaxed
  into the four-inequality family per segment.  Always >= the exact value.
* ``kantorovich_lp_dual`` — the same number through the mechanical dual;
  used to cross-check the embedding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, LpStatus, dualize

log = logging.getLogger(__name__)

_CLAMP_TOL = 1e-12


def _clamped(x, a, b, what):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < a - _CLAMP_TOL) or np.any(arr > b + _CLAMP_TOL):
        log.warning("%s evaluated outside [%g, %g]; clamping", what, a, b)
    return np.clip(arr, a, b)


class PiecewiseLinearUtility:
    """Normalized nondecreasing PL utility given by breakpoints and values."""

    def __init__(self, breakpoints, values, tol=1e-7):
        y = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if y.ndim != 1 or y.size < 2 or v.shape != y.shape:
            raise ValueError("need matching 1-D breakpoints/values with N >= 2")
        if np.any(np.diff(y) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if abs(v[0]) > tol or abs(v[-1] - 1.0) > tol:
            raise ValueError(f"utility must be normalized: u(a)={v[0]!r}, u(b)={v[-1]!r}")
        if np.any(np.diff(v) < -tol):
            raise ValueError("utility values must be nondecreasing")
        v = v.copy()
        v[0], v[-1] = 0.0, 1.0
        self.breakpoints = y
        self.breakpoints.setflags(write=False)
        self.values = v
        self.values.setflags(write=False)

    @property
    def domain(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def n_breakpoints(self):
        return self.breakpoints.size

    @property
    def slopes(self):
        """slopes[i] is the slope on segment [y_i, y_{i+1}]."""
        return np.diff(self.values) / np.diff(self.breakpoints)

    @property
    def mesh(self):
        return float(np.max(np.diff(self.breakpoints)))

    def __call__(self, x):
        a, b = self.domain
        arr = _clamped(x, a, b, "piecewise-linear utility")
        out = np.interp(arr, self.breakpoints, self.values)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def is_concave(self, tol=1e-9):
        return bool(np.all(np.diff(self.slopes) <= tol))

    def lipschitz_moduli(self):
        """Observed (L, Ltilde): max slope and max two-interval slope
        difference quotient |beta_{j+2}-beta_{j+1}| / (y_{j+2}-y_j)."""
        beta = self.slopes
        L = float(np.max(beta))
        if beta.size < 2:
            return L, 0.0
        y = self.breakpoints
        quot = np.abs(np.diff(beta)) / (y[2:] - y[:-2])
        return L, float(np.max(quot))


class ClosedFormUtility:
    """Ground-truth utilities with known derivatives.

    ``kind`` is one of linear / exponential / quadratic / min_affine; all are
    normalized on their domain.  ``lipschitz()`` returns an upper bound on
    the derivative; ``curvature()`` bounds |u''| for the twice-differentiable
    kinds and raises for min_affine.
    """

    def __init__(self, kind, domain=(0.0, 1.0), k=None, pieces=None):
        a, b = float(domain[0]), float(domain[1])
        if not a < b:
            raise ValueError("domain must satisfy a < b")
        self.kind = kind
        self.domain = (a, b)
        self.k = k
        self.pieces = None
        if kind == "exponential":
            if k is None or k <= 0:
                raise ValueError("exponential utility needs k > 0")
        elif kind == "min_affine":
            if not pieces:
                raise ValueError("min_affine needs a list of (slope, intercept) pairs")
            self.pieces = [(float(m), float(c)) for m, c in pieces]
            if abs(self._raw(a)) > 1e-12 or abs(self._raw(b) - 1.0) > 1e-12:
                raise ValueError("min_affine pieces are not normalized on the domain")
        elif kind not in ("linear", "quadratic"):
            raise ValueError(f"unknown utility kind {kind!r}")

    # convenience constructors
    @classmethod
    def linear(cls, domain=(0.0, 1.0)):
        return cls("linear", domain)

    @classmethod
    def exponential(cls, k, domain=(0.0, 1.0)):
        return cls("exponential", domain, k=k)

    @classmethod
    def quadratic(cls, domain=(0.0, 1.0)):
        return cls("quadratic", domain)

    @classmethod
    def min_affine(cls, pieces, domain=(0.0, 1.0)):
        return cls("min_affine", domain, pieces=pieces)

    def _raw(self, x):
        a, b = self.domain
        t = (np.asarray(x, dtype=float) - a) / (b - a)
        if self.kind == "linear":
            return t
        if self.kind == "exponential":
            return (1.0 - np.exp(-self.k * t)) / (1.0 - math.exp(-self.k))
        if self.kind == "quadratic":
            return 2.0 * t - t * t
        vals = np.stack([m * np.asarray(x, dtype=float) + c for m, c in self.pieces])
        return np.min(vals, axis=0)

    def __call__(self, x):
        a, b = self.domain
        arr = _clamped(x, a, b, f"{self.kind} utility")
        out = self._raw(arr)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def lipschitz(self):
        a, b = self.domain
        w = b - a
        if self.kind == "linear":
            return 1.0 / w
        if self.kind == "exponential":
            return self.k / ((1.0 - math.exp(-self.k)) * w)
        if self.kind == "quadratic":
            return 2.0 / w
        return max(m for m, _ in self.pieces)

    def curvature(self):
        a, b = self.domain
        w = b - a
        if self.kind == "linear":
            return 0.0
        if self.kind == "exponential":
            return self.k ** 2 / ((1.0 - math.exp(-self.k)) * w * w)
        if self.kind == "quadratic":
            return 2.0 / (w * w)
        raise ValueError("min_affine utility has no curvature bound")


def uniform_grid(a, b, n):
    if n < 2:
        raise ValueError("a grid needs at least 2 points")
    return np.linspace(a, b, n)


def project(utility, grid):
    """PL projection: keep the utility's values at the grid points.

    The grid must span the utility's domain so normalization carries over.
    """
    y = np.asarray(grid, dtype=float)
    a, b = utility.domain
    if abs(y[0] - a) > 1e-12 or abs(y[-1] - b) > 1e-12:
        raise ValueError("projection grid must span the utility domain")
    return PiecewiseLinearUtility(y, np.asarray(utility(y), dtype=float))


def merge_grids(u: PiecewiseLinearUtility, v: PiecewiseLinearUtility):
    """Common refinement of two PL utilities' breakpoints.

    Re-evaluating a PL function on a refinement is exact, so metrics computed
    on the merged grid are metrics of the original functions.
    """
    if u.domain != v.domain:
        raise ValueError(f"utilities live on different domains {u.domain} vs {v.domain}")
    y = np.union1d(u.breakpoints, v.breakpoints)
    return y, u(y), v(y)


def kantorovich_exact(u, v):
    """Exact integral of |u - v| (the Kantorovich distance for normalized
    monotone utilities), segment by segment with sign-change splitting."""
    y, uy, vy = merge_grids(u, v)
    d = uy - vy
    left, right = d[:-1], d[1:]
    width = np.diff(y)
    total = 0.0
    for dl, dr, w in zip(left, right, width):
        if dl * dr >= 0.0:
            total += 0.5 * abs(dl + dr) * w
        else:
            t = dl / (dl - dr)
            total += 0.5 * (abs(dl) * t + abs(dr) * (1.0 - t)) * w
    return float(total)


def kolmogorov(u, v):
    """Sup distance between two PL utilities (attained at a breakpoint)."""
    _, uy, vy = merge_grids(u, v)
    return float(np.max(np.abs(uy - vy)))


def build_kantorovich_lp(y, beta_u, beta_v):
    """The LP relaxation of the Kantorovich distance between two PL utilities
    sharing the grid ``y`` (segment slopes ``beta_u``, ``beta_v``).

    Variables are the test function's values z_j at breakpoints and its
    segment integrals w_j; per segment the four inequalities
    ``|w_j - z_{left/right} * delta_j| <= delta_j**2 / 2`` relax the
    1-Lipschitz property.  z is translation-invariant in exact arithmetic,
    so z_1 is pinned to 0 to keep the polytope compact under roundoff.
    """
    y = np.asarray(y, dtype=float)
    delta = np.diff(y)
    n_seg = delta.size
    coef = np.asarray(beta_u, dtype=float) - np.asarray(beta_v, dtype=float)

    lp = LinearProgram("max", name="kantorovich")
    w = lp.add_vars(n_seg, "w", lb=-math.inf)
    z = lp.add_vars(n_seg + 1, "z", lb=-math.inf)
    for i in range(n_seg):
        lp.set_obj(w[i], coef[i])
        half = 0.5 * delta[i] ** 2
        lp.add_row({w[i]: 1.0, z[i]: -delta[i]}, "<=", half)
        lp.add_row({w[i]: -1.0, z[i]: delta[i]}, "<=", half)
        lp.add_row({w[i]: 1.0, z[i + 1]: -delta[i]}, "<=", half)
        lp.add_row({w[i]: -1.0, z[i + 1]: delta[i]}, "<=", half)
    lp.add_row({z[0]: 1.0}, "=", 0.0, name="gauge")
    return lp


def _metric_lp(u, v):
    y, uy, vy = merge_grids(u, v)
    beta_u = np.diff(uy) / np.diff(y)
    beta_v = np.diff(vy) / np.diff(y)
    return build_kantorovich_lp(y, beta_u, beta_v)


def kantorovich_lp(u, v):
    sol = _metric_lp(u, v).solve()
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"Kantorovich LP ended {sol.status.value}: {sol.message}")
    return float(sol.objective)


def kantorovich_lp_dual(u, v):
    """Same value as :func:`kantorovich_lp`, computed on the mechanical dual."""
    sol = dualize(_metric_lp(u, v)).solve()
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"Kantorovich dual LP ended {sol.status.value}: {sol.message}")
    return float(sol.objective)
