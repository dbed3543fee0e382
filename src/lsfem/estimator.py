"""Built-in residual estimator and exact-error norms.

The local indicator is the L2 norm of the first-order residual,
eta_T = ||F - L u_h||_T, so the total squares to the least-squares
functional of the discrete solution; no separate data-oscillation term
exists in this setting.

``LevelEstimator`` is the level part of the indicator: the quadrature
tables and the load f at the quadrature points, whole-level arrays built
once per dof map, problem and rule.  The coefficients a, b and c are
the constants of the ``Problem``.  Calling it on a coefficient vector only
gathers the local coefficients and forms F - L u_h from those tables, so
the lambda rule of nested PCG can evaluate eta at any step without
re-integrating the data.

A call, like ``compute_error_norms``, evaluates the fields block by block
(``assembly._BLOCK`` elements at a time) and writes each block's element
squares into one array of the level, so its working memory is bounded by
a block while every element's square, and the total summed over the whole
array at the end, keeps the bits of a single-block evaluation.

``compute_indicators`` and ``compute_error_norms`` build their own tables
unless they are given a level's estimator through ``estimator=``; then
they read its tables instead, so one build per level serves the lambda
rule, the level report and the error norms with the bits of a fresh
build.  An estimator of another dof map or rule order, or for the
indicators of another problem, raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly, problems
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


def _blocked_report(fields, block_integrand):
    """Per-element L2 norms of an integrand, evaluated block by block.

    ``block_integrand(block)`` returns the integrand (nb, nq) at the
    quadrature points of ``fields`` on the elements of the slice ``block``.
    Each element's square is its weighted sum over the points, clipped at
    zero, and the total is the root of their sum over the whole level.
    """
    nt = fields.w_abs.shape[0]
    squares = np.empty(nt)
    for start in range(0, nt, assembly._BLOCK):
        block = slice(start, start + assembly._BLOCK)
        squares[block] = np.einsum("tq,tq->t", block_integrand(block),
                                   fields.w_abs[block])
    np.maximum(squares, 0.0, out=squares)
    return EstimatorReport(per_element=np.sqrt(squares),
                           total=float(np.sqrt(squares.sum())))


class LevelEstimator:
    """Indicators eta_T = ||F - L u_h||_T of any discrete function on one level.

    The tables built here are read, never written, so one instance can be
    called on any number of coefficient vectors of its dof map, and its
    ``fields`` serve ``compute_error_norms`` on the same level.  Pass it as
    ``estimator=`` to ``compute_indicators`` or ``compute_error_norms`` to
    share them; those check its dof map, rule order and problem.
    """

    def __init__(self, dofmap, problem, quad_order=6):
        self.fields = QuadFields(dofmap, quadrature_rule(quad_order))
        self.quad_order = quad_order
        self.problem = problem
        self.f = problem.f_fn(self.fields.phys.reshape(-1, 2)).reshape(
            self.fields.w_abs.shape)

    def __call__(self, coef):
        (a00, a01), (a10, a11) = self.problem.a
        b0, b1 = self.problem.b
        c = self.problem.c

        def residual_squared(block):
            u, grad, sigma, div = self.fields.evaluate(coef, block)
            g0, g1 = grad[:, None, 0], grad[:, None, 1]
            res0 = self.f[block] - (-div[:, None] + (b0 * g0 + b1 * g1)
                                    + c * u)
            resv0 = -((a00 * g0 + a01 * g1) - sigma[..., 0])
            resv1 = -((a10 * g0 + a11 * g1) - sigma[..., 1])
            return res0 ** 2 + resv0 ** 2 + resv1 ** 2

        return _blocked_report(self.fields, residual_squared)


def _check_estimator(estimator, dofmap, quad_order):
    if estimator.fields.dofmap is not dofmap:
        raise ValueError("the estimator belongs to another dof map")
    if estimator.quad_order != quad_order:
        raise ValueError(
            f"the estimator uses rule order {estimator.quad_order}, "
            f"not {quad_order}")


def compute_indicators(mesh, dofmap, problem, coef, quad_order=6, *,
                       estimator=None):
    """Element indicators eta_T = ||F - L u_h||_T and their total.

    ``estimator``, a ``LevelEstimator`` of this dof map, problem and rule
    order, is called instead of building a new one; the bits are the same.
    ``mesh`` must be ``dofmap.mesh``, else ``ValueError``.
    """
    if mesh is not dofmap.mesh:
        raise ValueError("the dof map belongs to another mesh")
    if estimator is None:
        estimator = LevelEstimator(dofmap, problem, quad_order)
    else:
        _check_estimator(estimator, dofmap, quad_order)
        if estimator.problem is not problem:
            raise ValueError("the estimator belongs to another problem")
    return estimator(coef)


def compute_error_norms(dofmap, coef, exact, quad_order=6, *,
                        estimator=None):
    """Errors against a manufactured solution in the natural product norm.

    Per element: ||u - u_h||_{H1(T)}^2 + ||sigma - sigma_h||_{H(div,T)}^2,
    both full norms (values plus derivatives).  An ``exact`` whose sigma
    half is zero (``problems._zero_exact``) with a coefficient vector whose
    flux block is zero measures the H1 error of the scalar alone, and the
    other way round for H(div).  ``estimator``, a ``LevelEstimator`` of
    this dof map and rule order, lends its ``fields`` instead of a new
    build; the bits are the same.
    """
    if estimator is None:
        fields = QuadFields(dofmap, quadrature_rule(quad_order))
    else:
        _check_estimator(estimator, dofmap, quad_order)
        fields = estimator.fields

    def error_squared(block):
        u, grad, sigma, div = fields.evaluate(coef, block)
        nb, nq = u.shape
        flat = fields.phys[block].reshape(-1, 2)
        du = exact.u(flat).reshape(nb, nq) - u
        dg = exact.grad_u(flat).reshape(nb, nq, 2) - grad[:, None, :]
        ds = exact.sigma(flat).reshape(nb, nq, 2) - sigma
        dd = exact.div_sigma(flat).reshape(nb, nq) - div[:, None]
        return (du ** 2 + dg[..., 0] ** 2 + dg[..., 1] ** 2
                + ds[..., 0] ** 2 + ds[..., 1] ** 2 + dd ** 2)

    return _blocked_report(fields, error_squared)


def discrete_v_norm(dofmap, coef, quad_order=4):
    """Product norm of a discrete function (exact for piecewise polynomials):
    its error norm against the zero solution."""
    return compute_error_norms(dofmap, coef, problems._zero_exact(),
                               quad_order).total
