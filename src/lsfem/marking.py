"""Marking strategies for the adaptive loop.

All strategies guarantee a nonempty marked set and satisfy the axiom that
the largest unmarked indicator never exceeds the largest marked one.  The
degenerate all-zero indicator vector marks element 0 to force progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigurationError
from .typecheck import check_fields

STRATEGIES = ("maximum", "equilibration", "doerfler", "uniform")


@dataclass(frozen=True)
class MarkingSpec:
    strategy: str = "doerfler"
    theta: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown marking strategy {self.strategy!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigurationError("marking theta out of (0, 1]")


def _as_indicators(indicators):
    eta = np.asarray(indicators, dtype=float)
    if eta.ndim != 1 or eta.size == 0:
        raise ValueError("indicators must be a nonempty 1-d array")
    if np.any(eta < 0) or not np.all(np.isfinite(eta)):
        raise ValueError("indicators must be finite and nonnegative")
    return eta


def mark(spec, indicators):
    """Select the marked element set; returns ascending element indices."""
    eta = _as_indicators(indicators)
    if spec.strategy == "uniform":
        return np.arange(eta.size, dtype=np.intp)
    if not np.any(eta > 0.0):
        return np.array([0], dtype=np.intp)

    if spec.strategy == "maximum":
        marked = np.flatnonzero(eta >= spec.theta * eta.max())
    elif spec.strategy == "equilibration":
        threshold = spec.theta * np.sum(eta ** 2) / eta.size
        marked = np.flatnonzero(eta ** 2 >= threshold)
        if marked.size == 0:        # guard against float drift on the mean
            marked = np.array([int(np.argmax(eta))])
    else:
        marked = _doerfler(eta, spec.theta)
    return np.sort(marked).astype(np.intp)


def _doerfler(eta, theta):
    """Shortest descending prefix reaching the bulk theta * total^2.

    Ties are broken toward lower element indices, so the marked set is a
    pure function of the indicator vector.
    """
    squares = eta ** 2
    order = np.lexsort((np.arange(eta.size), -squares))
    cum = np.cumsum(squares[order])
    target = theta * squares.sum()
    k = int(np.searchsorted(cum, target - 1e-14 * cum[-1]) + 1)
    k = min(k, eta.size)
    return order[:k]


def verify_marking_axiom(indicators, marked):
    """max over unmarked indicators <= max over marked indicators."""
    eta = _as_indicators(indicators)
    marked = np.asarray(marked, dtype=np.intp)
    if marked.size == 0:
        return False
    unmarked = np.setdiff1d(np.arange(eta.size), marked)
    if unmarked.size == 0:
        return True
    return bool(eta[unmarked].max() <= eta[marked].max())


def doerfler_bruteforce(indicators, theta):
    """Reference minimum-cardinality bulk set by exhaustive search.

    Only intended for short vectors; among all minimum-cardinality feasible
    sets the canonical one (largest indicators first, ties toward lower
    index) is returned, which coincides with the greedy prefix.
    """
    eta = _as_indicators(indicators)
    if eta.size > 20:
        raise ValueError("brute force is limited to 20 indicators")
    if not np.any(eta > 0.0):
        return np.array([0], dtype=np.intp)
    squares = eta ** 2
    target = theta * squares.sum()
    slack = 1e-14 * squares.sum()
    indices = range(eta.size)
    for k in range(1, eta.size + 1):
        feasible = []
        for subset in combinations(indices, k):
            if squares[list(subset)].sum() >= target - slack:
                feasible.append(subset)
        if feasible:
            def canon(subset):
                return sorted((-squares[i], i) for i in subset)
            best = min(feasible, key=canon)
            return np.sort(np.array(best, dtype=np.intp))
    return np.arange(eta.size, dtype=np.intp)
