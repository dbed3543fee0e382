"""Built-in residual estimator and exact-error norms.

The local indicator is the L2 norm of the first-order residual,
eta_T = ||F - L u_h||_T, so the total squares to the least-squares
functional of the discrete solution; no separate data-oscillation term
exists in this setting.

``LevelEstimator`` is the level part of the indicator: the quadrature
tables and the load f at the quadrature points, built once per mesh, dof
map, problem and rule.  The coefficients a, b and c are the constants of
the ``Problem``.  Calling it on a coefficient vector only gathers the
local coefficients and forms F - L u_h from those tables, so the lambda
rule of nested PCG can evaluate eta at any step without re-integrating
the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import QuadFields
from .quadrature import quadrature_rule


@dataclass
class EstimatorReport:
    """Per-element indicators, or per-element errors, and their l2 total."""

    per_element: np.ndarray
    total: float

    def subset_total(self, element_indices):
        idx = np.asarray(element_indices, dtype=np.intp)
        return float(np.sqrt(np.sum(self.per_element[idx] ** 2)))


class LevelEstimator:
    """Indicators eta_T = ||F - L u_h||_T of any discrete function on one level.

    The tables built here are read, never written, so one instance can be
    called on any number of coefficient vectors of its dof map.
    """

    def __init__(self, mesh, dofmap, problem, quad_order=6):
        self.fields = QuadFields(mesh, dofmap, quadrature_rule(quad_order))
        self.problem = problem
        self.f = problem.f_fn(self.fields.phys.reshape(-1, 2)).reshape(
            self.fields.w_abs.shape)

    def __call__(self, coef):
        u, grad, sigma, div = self.fields.evaluate(coef)
        g0, g1 = grad[:, None, 0], grad[:, None, 1]
        (a00, a01), (a10, a11) = self.problem.a
        b0, b1 = self.problem.b
        c = self.problem.c
        res0 = self.f - (-div[:, None] + (b0 * g0 + b1 * g1) + c * u)
        resv0 = -((a00 * g0 + a01 * g1) - sigma[..., 0])
        resv1 = -((a10 * g0 + a11 * g1) - sigma[..., 1])
        sq = res0 ** 2 + resv0 ** 2 + resv1 ** 2
        squares = np.maximum(np.einsum("tq,tq->t", sq, self.fields.w_abs), 0.0)
        return EstimatorReport(per_element=np.sqrt(squares),
                               total=float(np.sqrt(squares.sum())))


def compute_indicators(mesh, dofmap, problem, coef, quad_order=6):
    """Element indicators eta_T = ||F - L u_h||_T and their total."""
    return LevelEstimator(mesh, dofmap, problem, quad_order)(coef)


def compute_error_norms(mesh, dofmap, coef, exact, quad_order=6):
    """Errors against a manufactured solution in the natural product norm.

    Per element: ||u - u_h||_{H1(T)}^2 + ||sigma - sigma_h||_{H(div,T)}^2,
    both full norms (values plus derivatives).  An ``exact`` whose sigma
    half is zero (``problems._zero_exact``) with a coefficient vector whose
    flux block is zero measures the H1 error of the scalar alone, and the
    other way round for H(div).
    """
    fields = QuadFields(mesh, dofmap, quadrature_rule(quad_order))
    u, grad, sigma, div = fields.evaluate(coef)
    nt, nq = u.shape
    flat = fields.phys.reshape(-1, 2)
    du = exact.u(flat).reshape(nt, nq) - u
    dg = exact.grad_u(flat).reshape(nt, nq, 2) - grad[:, None, :]
    ds = exact.sigma(flat).reshape(nt, nq, 2) - sigma
    dd = exact.div_sigma(flat).reshape(nt, nq) - div[:, None]
    sq = (du ** 2 + dg[..., 0] ** 2 + dg[..., 1] ** 2
          + ds[..., 0] ** 2 + ds[..., 1] ** 2 + dd ** 2)
    squares = np.maximum(np.einsum("tq,tq->t", sq, fields.w_abs), 0.0)
    return EstimatorReport(per_element=np.sqrt(squares),
                           total=float(np.sqrt(squares.sum())))


def discrete_v_norm(mesh, dofmap, coef, quad_order=4):
    """Product norm of a discrete function (exact for piecewise polynomials)."""
    fields = QuadFields(mesh, dofmap, quadrature_rule(quad_order))
    u, grad, sigma, div = fields.evaluate(coef)
    sq = (u ** 2 + grad[:, None, 0] ** 2 + grad[:, None, 1] ** 2
          + sigma[..., 0] ** 2 + sigma[..., 1] ** 2 + div[:, None] ** 2)
    return float(np.sqrt(max(np.einsum("tq,tq->", sq, fields.w_abs), 0.0)))
