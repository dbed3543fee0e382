"""Quadrature rules on the reference triangle, exact to a requested degree.

Rules are stored barycentric with weights relative to the element area
(weights sum to one); an integral over a physical triangle T is
``area(T) * sum_q w_q f(x_q)``.  Degrees 1-6 use classical symmetric rules
with positive weights; higher degrees fall back to a conical-product
Gauss-Jacobi x Gauss-Legendre rule, which keeps weights positive at every
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 10


@dataclass(frozen=True)
class QuadRule:
    points: np.ndarray          # (nq, 3) barycentric
    weights: np.ndarray         # (nq,) relative weights, sum 1
    exactness_degree: int


def _orbit3(a, b):
    return [(a, b, b), (b, a, b), (b, b, a)]


def _orbit6(a, b, c):
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


_TABLES = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [1.0]),
    # edge midpoints: the absolute weights are area/3 = 1/6 on the reference triangle
    2: (_orbit3(0.0, 0.5), [1 / 3] * 3),
    3: (_orbit6(0.659027622374092, 0.231933368553031, 0.109039009072877),
        [1 / 6] * 6),
    4: (_orbit3(0.108103018168070, 0.445948490915965)
        + _orbit3(0.816847572980459, 0.091576213509771),
        [0.223381589678011] * 3 + [0.109951743655322] * 3),
    5: ([(1 / 3, 1 / 3, 1 / 3)]
        + _orbit3(0.059715871789770, 0.470142064105115)
        + _orbit3(0.797426985353087, 0.101286507323456),
        [0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3),
    6: (_orbit3(0.501426509658179, 0.249286745170910)
        + _orbit3(0.873821971016996, 0.063089014491502)
        + _orbit6(0.053145049844817, 0.310352451033784, 0.636502499121399),
        [0.116786275726379] * 3 + [0.050844906370207] * 3
        + [0.082851075618374] * 6),
}


def _conical_rule(degree):
    """Collapsed-square product rule, exact for total degree <= 2n-1."""
    # imported here: only orders above 6 need it, and it slows ``import lsfem``
    from scipy.special import roots_jacobi

    n = (degree + 2) // 2
    xg, wg = np.polynomial.legendre.leggauss(n)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    xj, wj = roots_jacobi(n, 1.0, 0.0)      # weight (1 - t) on [-1, 1]
    xj = 0.5 * (xj + 1.0)
    wj = 0.25 * wj                          # now sums to 1/2 on [0, 1]
    points = []
    weights = []
    for i in range(n):
        for k in range(n):
            x = xj[i]
            y = xg[k] * (1.0 - xj[i])
            points.append((1.0 - x - y, x, y))
            weights.append(2.0 * wj[i] * wg[k])     # relative to area 1/2
    return points, weights


@lru_cache(maxsize=None)
def quadrature_rule(order):
    """A positive-weight rule exact to at least the requested degree."""
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_ORDER:
        raise ValueError(f"quadrature order must be in 1..{MAX_ORDER}, got {order!r}")
    if order in _TABLES:
        pts, wts = _TABLES[order]
    else:
        pts, wts = _conical_rule(order)
    points = np.array(pts, dtype=float)
    weights = np.array(wts, dtype=float)
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadRule(points=points, weights=weights, exactness_degree=int(order))
