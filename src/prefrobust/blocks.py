"""Reusable LP blocks describing sets of piecewise-linear utilities.

Every optimization in this package works over normalized nondecreasing PL
utilities on a fixed grid, encoded by value variables alpha_j at breakpoints
and slope variables beta_j per segment.  The row families here are shared by
the ambiguity-set feasibility checker, the one-stage worst-case LPs, and the
scenario-tree assembly, so their exact shape (what is a row, what is a
bound) is fixed in one place: slope nonnegativity is a variable bound, while
normalization, value/slope linkage, concavity, the Lipschitz cap, and the
slope-variation cap are rows, because downstream code reads their duals.
Concavity is always imposed; the worst-case LPs' supporting lines need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lp import LinearProgram


@dataclass
class UtilityBlock:
    """Variable/row indices of one PL-utility block inside a larger LP."""

    grid: np.ndarray
    alpha: np.ndarray  # value variables, one per breakpoint
    beta: np.ndarray  # slope variables, one per segment
    rows: dict = field(default_factory=dict)


def add_band(lp: LinearProgram, cols, vals, rel, rhs, names):
    """Add rows of equal width in one block: row ``k`` has the coefficients
    ``vals[k]`` on the variables ``cols[k]``, in that order.  ``cols`` is an
    m x width index array and ``vals`` broadcasts to its shape; ``rel``,
    ``rhs`` and ``names`` are as for ``LinearProgram.add_rows``.  Returns the
    row indices."""
    cols = np.asarray(cols)
    m, width = cols.shape
    vals = np.broadcast_to(np.asarray(vals, dtype=float), cols.shape)
    return lp.add_rows(np.arange(m + 1) * width, cols.ravel(), vals.ravel(), rel, rhs, names)


def append_utility_block(lp: LinearProgram, grid, L, L_tilde):
    """Add alpha/beta variables and the shape rows of the utility class.

    Rows (names prefixed by ``u.``): ``norm0``/``norm1`` pin alpha at the
    endpoints to 0 and 1; ``link[i]`` ties alpha increments to beta;
    ``concave[i]``: alpha_{i+1} - alpha_i - beta_{i+1} * delta_i >= 0
    force nonincreasing slopes; ``lip[i]`` caps beta at L;
    ``curve_lo/hi[i]`` cap the slope variation |beta_{i+1} - beta_i| by
    L_tilde * (y_{i+2} - y_i).
    """
    y = np.asarray(grid, dtype=float)
    if y.ndim != 1 or y.size < 2 or np.any(np.diff(y) <= 0):
        raise ValueError("grid must be strictly increasing with at least 2 points")
    if not (L > 0 and L_tilde > 0 and math.isfinite(L) and math.isfinite(L_tilde)):
        raise ValueError("L and L_tilde must be finite and positive")
    delta = np.diff(y)
    n_seg = delta.size

    alpha = lp.add_vars(y.size, "u.alpha", lb=-math.inf)
    beta = lp.add_vars(n_seg, "u.beta", lb=0.0)
    a0, a1, b0, b1 = alpha[:-1], alpha[1:], beta[:-1], beta[1:]
    one, seg, inner = np.ones(n_seg), range(n_seg), range(n_seg - 1)
    norm = add_band(lp, [[alpha[0]], [alpha[-1]]], 1.0, "=", [0.0, 1.0],
                    ["u.norm0", "u.norm1"])
    rows = {
        "norm0": int(norm[0]),
        "norm1": int(norm[1]),
        "link": add_band(lp, np.column_stack([a1, a0, beta]),
                         np.column_stack([one, -one, -delta]), "=", 0.0,
                         [f"u.link[{i}]" for i in seg]).tolist(),
        "lip": add_band(lp, beta[:, None], 1.0, "<=", L,
                        [f"u.lip[{i}]" for i in seg]).tolist(),
        "concave": add_band(lp, np.column_stack([a1[:-1], a0[:-1], b1]),
                            np.column_stack([one[1:], -one[1:], -delta[:-1]]), ">=", 0.0,
                            [f"u.concave[{i}]" for i in inner]).tolist(),
    }
    # curve_hi[i] and curve_lo[i] alternate, both over (beta[i+1], beta[i])
    cap = L_tilde * (y[2:] - y[:-2])
    curve = add_band(
        lp, np.column_stack([np.repeat(b1, 2), np.repeat(b0, 2)]),
        np.tile([[1.0, -1.0], [-1.0, 1.0]], (n_seg - 1, 1)), "<=", np.repeat(cap, 2),
        [f"u.{side}[{i}]" for i in inner for side in ("curve_hi", "curve_lo")])
    rows["curve_hi"], rows["curve_lo"] = curve[0::2].tolist(), curve[1::2].tolist()
    return UtilityBlock(grid=y, alpha=alpha, beta=beta, rows=rows)


def append_ball_membership(lp: LinearProgram, beta, nominal_slopes, grid, radius):
    """Rows certifying that the slopes ``beta`` stay within LP-Kantorovich
    distance ``radius`` of ``nominal_slopes``.

    This is the multiplier form of the metric LP: four nonnegative
    multiplier families (lam, mu, rho, phi), a budget row bounding
    sum of delta_i^2/2 * (lam+mu+rho+phi) by the radius, one matching row
    per segment tying multipliers to beta - nominal, and telescoping rows
    at the left end, between consecutive segments, and at the right end.
    Membership in this ball implies membership in the exact-distance ball.
    Variables and rows are named ``ball.*``.
    """
    y = np.asarray(grid, dtype=float)
    delta = np.diff(y)
    n_seg = delta.size
    bnom = np.asarray(nominal_slopes, dtype=float)
    if bnom.shape != (n_seg,):
        raise ValueError("nominal_slopes must have one entry per grid segment")
    if radius < 0:
        raise ValueError("radius must be nonnegative")

    lam = lp.add_vars(n_seg, "ball.lam")
    mu = lp.add_vars(n_seg, "ball.mu")
    rho = lp.add_vars(n_seg, "ball.rho")
    phi = lp.add_vars(n_seg, "ball.phi")

    half = np.repeat([0.5 * d ** 2 for d in delta], 4)
    budget = np.column_stack([lam, mu, rho, phi]).ravel()
    rows = {
        "budget": int(add_band(lp, budget[None, :], half, "<=", float(radius),
                               ["ball.budget"])[0]),
        "match": add_band(lp, np.column_stack([beta, lam, mu, rho, phi]),
                          [-1.0, 1.0, -1.0, 1.0, -1.0], "=", -bnom,
                          [f"ball.match[{i}]" for i in range(n_seg)]).tolist(),
        "left": int(add_band(lp, [[mu[0], lam[0]]], [delta[0], -delta[0]], "=", 0.0,
                             ["ball.left"])[0]),
        "mid": add_band(
            lp, np.column_stack([mu[1:], lam[1:], phi[:-1], rho[:-1]]),
            np.column_stack([delta[1:], -delta[1:], delta[:-1], -delta[:-1]]), "=", 0.0,
            [f"ball.mid[{i}]" for i in range(n_seg - 1)]).tolist(),
        "right": int(add_band(lp, [[phi[-1], rho[-1]]], [delta[-1], -delta[-1]], "=", 0.0,
                              ["ball.right"])[0]),
    }
    return {"lam": lam, "mu": mu, "rho": rho, "phi": phi, "rows": rows}


class PairArrays(NamedTuple):
    """Comparisons (W_k, Y_k, z_k) in flat form: every lottery's outcomes and
    masses in support order, W_k's then Y_k's, the owner ``2k + side`` of
    each entry (side 0 for W_k, 1 for Y_k), and the answers z_k."""

    outcomes: np.ndarray
    masses: np.ndarray
    owner: np.ndarray
    signs: np.ndarray

    @classmethod
    def from_pairs(cls, pairs):
        support, mass, owner, signs = [], [], [], []
        for k, (w, yk, z) in enumerate(pairs):
            signs.append(z)
            for lottery, side in ((w, 0), (yk, 1)):
                support.extend(lottery.support)
                mass.extend(lottery.probs)
                owner.extend([2 * k + side] * len(lottery.support))
        return cls(np.asarray(support, dtype=float), np.asarray(mass, dtype=float),
                   np.asarray(owner, dtype=np.int64), np.asarray(signs, dtype=np.int64))


def append_pairwise_rows(lp: LinearProgram, alpha, grid, *pairs, margin=0.0):
    """One row per elicited comparison (W_k, Y_k, z_k):
    z_k * sum_j (P[W_k = y_j] - P[Y_k = y_j]) * alpha_j >= margin.

    Each of ``pairs`` is a :class:`PairArrays` or a sequence of (W_k, Y_k,
    z_k), its rows named ``pc[k]`` from 0.  Each lottery outcome is matched
    to its nearest point of the increasing ``grid`` (ties to the lower
    index) and must lie within 1e-9 of it.  Masses on one point add up in
    support order, coefficients that cancel to zero are left out, and the
    rows of all ``pairs``, in order, enter the program in one block.
    Returns the row indices.
    """
    parts = [p if isinstance(p, PairArrays) else PairArrays.from_pairs(p) for p in pairs]
    counts = [p.signs.size for p in parts]
    x, masses, owner, signs = (np.concatenate(field) for field in zip(*parts))
    # each part's owners follow those of the parts before it
    owner += np.repeat(2 * np.cumsum([0] + counts[:-1]), [p.owner.size for p in parts])
    y = np.asarray(grid, dtype=float)
    # on an increasing grid the nearest point is one of the two around x
    hi = np.minimum(np.searchsorted(y, x), y.size - 1)
    lo = np.maximum(hi - 1, 0)
    j = np.where(np.abs(y[hi] - x) < np.abs(y[lo] - x), hi, lo)
    # written so that a NaN outcome fails the check too
    off = ~(np.abs(y[j] - x) <= 1e-9)
    if off.any():
        raise ValueError(f"lottery outcome {float(x[off][0])!r} is not a grid point")

    # one cell per (comparison, grid point) that holds mass, in row-major order
    N = y.size
    cell, at = np.unique(owner // 2 * N + j, return_inverse=True)
    side = owner % 2 == 1
    # bincount adds the masses of one point in input order, from 0.0
    w_mass, y_mass = (np.bincount(at[s], weights=masses[s], minlength=cell.size)
                      for s in (~side, side))
    diff = w_mass - y_mass
    keep = diff != 0.0
    cell, diff = cell[keep], diff[keep]
    row = cell // N
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=signs.size))))
    coefs = signs[row].astype(float) * diff
    cols = np.asarray(alpha)[cell % N]
    names = [f"pc[{k}]" for k in range(max(counts, default=0))]
    return lp.add_rows(indptr, cols, coefs, ">=", margin,
                       [name for n in counts for name in names[:n]])
