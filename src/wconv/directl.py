"""Locally-biased DIRECT: deterministic derivative-free minimization on a box.

The search domain is rescaled to the unit hypercube and covered by
hyperrectangles sampled at their centres.  Each iteration selects the
potentially optimal rectangles (the lower-right convex hull of the
(size, value) cloud, at most one rectangle per size class, which is the
locally-biased restriction) and trisects them along their longest sides.
Rectangle sizes are measured by the longest side, 3^-level after `level`
trisections of a dimension.  Everything is sequential with insertion-order
tie-breaking, so a run is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SearchDivergedError

# Stand-in for +inf in hull/slope arithmetic; large enough to lose against
# any real objective, small enough that differences stay finite.
_BIG = 1e100

# Consecutive iterations without an f_tol improvement after which the
# search stops.
STALL_ITERS = 50


@dataclass
class HyperRect:
    """Search cell: centre in [0,1]^n, per-dimension trisection depths."""

    center: np.ndarray
    levels: np.ndarray
    value: float
    index: int

    @property
    def measure(self) -> float:
        """Longest side length, 3^-min(levels)."""
        return 3.0 ** -int(self.levels.min())


@dataclass(frozen=True)
class DirectConfig:
    lower: np.ndarray
    upper: np.ndarray
    f_tol: float = 1e-6
    max_evals: int = 2000
    max_iters: int = 500
    epsilon: float = 1e-4

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-D and equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"bounds must be finite, got {lo} and {hi}")
        if not np.all(lo < hi):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if not 0 < self.f_tol < math.inf:
            raise ValueError(f"f_tol must be finite and positive, got {self.f_tol!r}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and non-negative, "
                             f"got {self.epsilon!r}")
        if self.max_evals < 1 or self.max_iters < 1:
            raise ValueError("max_evals and max_iters must be >= 1")


@dataclass
class TraceRow:
    iteration: int
    evals: int
    best_value: float
    best_point: np.ndarray


@dataclass
class DirectResult:
    """Incumbent, iteration count, per-iteration trace, and the log of
    every evaluation as (point, value as returned) in call order."""

    best_point: np.ndarray
    best_value: float
    iterations: int
    trace: list[TraceRow]
    evals: list[tuple[np.ndarray, float]]

    @property
    def eval_count(self) -> int:
        return len(self.evals)


def select_potentially_optimal(rects, epsilon: float = 1e-4,
                               f_best: float | None = None):
    """Subset of rectangles worth splitting this iteration.

    Keeps the best rectangle of each size class (ties to the oldest), then
    the lower-right convex hull of their (measure, value) points, pruned
    by the epsilon slack against the incumbent.  Returned largest first.
    """
    if not rects:
        return []
    classes: dict[int, HyperRect] = {}
    for r in rects:
        key = int(r.levels.min())
        cur = classes.get(key)
        if cur is None or r.value < cur.value or (r.value == cur.value
                                                  and r.index < cur.index):
            classes[key] = r
    # Sort by measure ascending: deeper level = smaller cell first.
    cands = [classes[key] for key in sorted(classes.keys(), reverse=True)]
    values = [min(r.value, _BIG) for r in cands]
    if f_best is None:
        f_best = min(values)
    f_best = min(f_best, _BIG)
    if len(cands) == 1:
        return [cands[0]]

    # Lower hull over (measure, value), keeping collinear points.
    hull: list[int] = []
    for j in range(len(cands)):
        dj, fj = cands[j].measure, values[j]
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = ((cands[a].measure - cands[o].measure) * (fj - values[o])
                     - (values[a] - values[o]) * (dj - cands[o].measure))
            if cross < 0:
                hull.pop()
            else:
                break
        hull.append(j)

    # Only the portion from the lowest value rightward can win for some
    # positive slope; on value ties prefer the larger cell.
    start = 0
    for pos, j in enumerate(hull):
        if values[j] <= values[hull[start]]:
            start = pos
    chain = hull[start:]

    selected = []
    for pos, j in enumerate(chain):
        dj, fj = cands[j].measure, values[j]
        if pos + 1 < len(chain):
            nxt = chain[pos + 1]
            right_slope = (values[nxt] - fj) / (cands[nxt].measure - dj)
            reachable = fj - right_slope * dj
        else:
            reachable = -np.inf
        if f_best != 0:
            ok = reachable <= f_best - epsilon * abs(f_best)
        else:
            ok = reachable <= 0
        if ok:
            selected.append(cands[j])
    selected.sort(key=lambda r: (-r.measure, r.index))
    return selected


def trisect(rect: HyperRect, evaluate, next_index: int):
    """Split a rectangle along all of its longest sides.

    Samples centre +- side/3 along each longest dimension (2 calls of
    ``evaluate`` on normalized points per dimension), then splits
    best-scoring dimension first so the most promising samples land in the
    largest children.  The parent's centre is reused as the centre child's,
    never re-evaluated.
    """
    min_level = int(rect.levels.min())
    dims = [d for d in range(rect.levels.shape[0])
            if int(rect.levels[d]) == min_level]
    delta = 3.0 ** -(min_level + 1)
    samples = []
    for d in dims:
        minus = rect.center.copy()
        minus[d] -= delta
        plus = rect.center.copy()
        plus[d] += delta
        f_minus = evaluate(minus)
        f_plus = evaluate(plus)
        samples.append((min(f_minus, f_plus), d, minus, f_minus, plus, f_plus))
    samples.sort(key=lambda s: (s[0], s[1]))
    children = []
    for _, d, minus, f_minus, plus, f_plus in samples:
        rect.levels = rect.levels.copy()
        rect.levels[d] += 1
        children.append(HyperRect(minus, rect.levels.copy(), f_minus, next_index))
        next_index += 1
        children.append(HyperRect(plus, rect.levels.copy(), f_plus, next_index))
        next_index += 1
    return children, next_index


def minimize(objective, cfg: DirectConfig, init=None) -> DirectResult:
    """Derivative-free global minimization of ``objective`` over the box.

    The ``init`` point (defaulting to the box centre) is evaluated first
    and seeds the incumbent.  Terminates when the incumbent has improved
    by less than ``f_tol`` over ``STALL_ITERS`` consecutive iterations, or
    on the evaluation/iteration budgets.  Every evaluation is logged in
    call order with the value the objective returned.  A non-finite value
    scores the point +inf; if every value is non-finite there is no
    incumbent and the search raises ``SearchDivergedError``.
    """
    n = cfg.lower.shape[0]
    span = cfg.upper - cfg.lower
    if init is None:
        init_n = np.full(n, 0.5)
    else:
        init = np.atleast_1d(np.asarray(init, dtype=np.float64))
        if init.shape != (n,):
            raise ValueError(f"init point must have {n} components")
        if np.any(init < cfg.lower) or np.any(init > cfg.upper):
            raise ValueError("init point outside bounds")
        init_n = (init - cfg.lower) / span

    evals: list[tuple[np.ndarray, float]] = []
    # NaN coordinates until some evaluation has been finite.
    best_value, best_point = np.inf, np.full(n, np.nan)

    def evaluate(xn) -> float:
        nonlocal best_value, best_point
        point = cfg.lower + xn * span
        value = float(objective(point))
        evals.append((point, value))
        if not np.isfinite(value):
            value = np.inf
        if value < best_value:
            best_value, best_point = value, point
        return value

    init_value = evaluate(init_n)
    rects = []
    if len(evals) < cfg.max_evals:
        center = np.full(n, 0.5)
        center_value = (init_value if np.array_equal(center, init_n)
                        else evaluate(center))
        rects.append(HyperRect(center, np.zeros(n, dtype=np.int64),
                               center_value, 0))
    next_index = 1
    trace = [TraceRow(0, len(evals), best_value, best_point)]

    stall = 0
    reference = best_value
    iteration = 0
    while iteration < cfg.max_iters and len(evals) < cfg.max_evals:
        iteration += 1
        selected = select_potentially_optimal(rects, cfg.epsilon, best_value)
        split_any = False
        for rect in selected:
            needed = 2 * int(np.sum(rect.levels == rect.levels.min()))
            if len(evals) + needed > cfg.max_evals:
                continue
            children, next_index = trisect(rect, evaluate, next_index)
            rects.extend(children)
            split_any = True
        trace.append(TraceRow(iteration, len(evals), best_value, best_point))
        if reference - best_value >= cfg.f_tol:
            reference = best_value
            stall = 0
        else:
            stall += 1
        if stall >= STALL_ITERS:
            break
        if not split_any:
            break
    if not np.isfinite(best_value):
        raise SearchDivergedError(f"all {len(evals)} objective evaluations "
                                  "were non-finite: the whole search diverged")
    return DirectResult(best_point, best_value, iteration, trace, evals)
