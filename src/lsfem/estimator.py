"""Built-in residual estimator and exact-error norms.

The local indicator is the L2 norm of the first-order residual,
eta_T = ||F - L u_h||_T, so the total squares to the least-squares
functional of the discrete solution; no separate data-oscillation term
exists in this setting.

``LevelEstimator`` is the level part of the indicator: a ``QuadFields``
(the quadrature tables, built once per dof map and rule) that also holds
the load f at the quadrature points.  The tables are the points and
weights, which are per element and point, and per element the corners,
hat gradients, RT0 scale and dofs, which the mesh and the dof map do not
keep; the edge-field vectors ``x - corner`` are not tables but formed per
block.  The coefficients a, b and c are the constants of the
``Problem``.  Calling it on a coefficient vector only gathers the local
coefficients and forms F - L u_h from those tables, so the lambda rule of
nested PCG can evaluate eta at any step without re-integrating the data.

A call, like ``compute_error_norms``, evaluates the fields block by block
(``assembly._BLOCK`` elements at a time) and writes each block's element
squares into one array of the level, so its working memory is bounded by
a block while every element's square, and the total summed over the whole
array at the end, keeps the bits of a single-block evaluation.  The
driver builds the level's estimator after an exact solve, so none of its
tables is alive while the level is factorized.

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
from .assembly import _quad_points
from .mesh import as_element_indices
from .quadrature import quadrature_rule


@dataclass
class EstimatorReport:
    """Per-element indicators, or per-element errors, and their l2 total."""

    per_element: np.ndarray
    total: float

    def subset_total(self, element_indices):
        """l2 total over the elements ``element_indices``; booleans, floats
        and indices outside [0, n) raise ``ValueError``."""
        idx = as_element_indices(element_indices, self.per_element.size,
                                 "element_indices")
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


class QuadFields:
    """Level part of the discrete fields at the quadrature points of a rule.

    Holds whole-level arrays built once: the physical points ``phys``
    (nt, nq, 2) and the absolute weights ``w_abs`` (nt, nq), and per
    element the corners ``coords`` and hat gradients ``hat_grads``
    (nt, 3, 2), the RT0 scale ``scale`` (nt, 3) and the dofs ``dofs``
    (nt, 6).  The mesh and the dof map keep none of these per-element
    tables, so they exist only while a level's fields do, which on the
    exact path is after its factor is freed.  ``evaluate`` combines them
    with one coefficient vector on one block of elements and forms the
    edge-field vectors ``x - coords[:, i]`` for that block only.  The
    tables are never written to, so one instance serves any number of
    vectors and blocks on its level.
    """

    def __init__(self, dofmap, rule):
        mesh = dofmap.mesh
        self.dofmap = dofmap
        self.hat_values = rule.points                   # (nq, 3)
        self.coords, self.hat_grads = mesh.element_geometry()
        self.dofs = dofmap.element_dofs()               # (nt, 6)
        self.phys = np.empty((mesh.n_elements, len(rule.weights), 2))
        _quad_points(rule, self.coords.transpose(1, 0, 2),
                     self.phys.transpose(1, 0, 2))
        self.w_abs = rule.weights[None, :] * mesh.geometry["area"][:, None]
        self.scale = mesh.rt_scale                      # (nt, 3)

    def evaluate(self, coef, block=slice(None)):
        """Fields of the discrete function ``coef`` on the elements ``block``.

        ``block`` is a slice of the element axis.  Returns (u, grad_u,
        sigma, div_sigma) with shapes (nb, nq), (nb, 2), (nb, nq, 2), (nb,)
        for the nb elements of the block: the gradient and the divergence
        are constant on each element.  Each element's values do not depend
        on the block it is evaluated in.  Constrained dofs contribute zero.
        A vector of another length than the dof map's raises ``ValueError``.
        """
        coef = np.asarray(coef, dtype=float)
        if coef.shape != (self.dofmap.n_total,):
            raise ValueError("coefficient vector length does not match the dof map")
        gdofs = self.dofs[block]
        cf = np.where(gdofs >= 0, coef[np.clip(gdofs, 0, None)], 0.0)
        u = np.einsum("qj,tj->tq", self.hat_values, cf[:, :3])
        grad = np.einsum("tjd,tj->td", self.hat_grads[block], cf[:, :3])
        scaled = self.scale[block] * cf[:, 3:]
        # sigma = sum_i (x - coords[:, i]) * scaled[:, i], summed in i
        # order.  Points as complex x + iy: a complex difference is the
        # difference of each component, and numpy runs it over the points
        # in one loop instead of one loop of two per point
        phys = self.phys[block].view(complex)           # (nb, nq, 1)
        corners = self.coords[block].view(complex)      # (nb, 3, 1)
        sigma = (phys - corners[:, None, 0]).view(float)
        sigma *= scaled[:, None, 0, None]
        term = (phys - corners[:, None, 1]).view(float)
        term *= scaled[:, None, 1, None]
        sigma += term
        np.subtract(phys, corners[:, None, 2], out=term.view(complex))
        term *= scaled[:, None, 2, None]
        sigma += term
        div = (2.0 * scaled).sum(axis=1)
        return u, grad, sigma, div


class LevelEstimator(QuadFields):
    """Indicators eta_T = ||F - L u_h||_T of any discrete function on one level.

    The tables of ``QuadFields`` and the load ``f`` (nt, nq) at its points
    are built here and kept for the instance's lifetime, so a call forms
    only the block's edge-field vectors and gathers the block's
    coefficients.  They are read, never written, so one instance can be
    called on any number of coefficient vectors of its dof map and can
    serve as the fields of ``compute_error_norms`` on the same level.  Pass
    it as ``estimator=`` to ``compute_indicators`` or ``compute_error_norms``
    to share them; those check its dof map, rule order and problem.
    """

    def __init__(self, dofmap, problem, quad_order=6):
        super().__init__(dofmap, quadrature_rule(quad_order))
        self.quad_order = quad_order
        self.problem = problem
        self.f = problem.f_fn(self.phys.reshape(-1, 2)).reshape(
            self.w_abs.shape)

    def __call__(self, coef):
        (a00, a01), (a10, a11) = self.problem.a
        b0, b1 = self.problem.b
        c = self.problem.c

        def residual_squared(block):
            u, grad, sigma, div = self.evaluate(coef, block)
            g0, g1 = grad[:, None, 0], grad[:, None, 1]
            res0 = self.f[block] - (-div[:, None] + (b0 * g0 + b1 * g1)
                                    + c * u)
            resv0 = -((a00 * g0 + a01 * g1) - sigma[..., 0])
            resv1 = -((a10 * g0 + a11 * g1) - sigma[..., 1])
            return res0 ** 2 + resv0 ** 2 + resv1 ** 2

        return _blocked_report(self, residual_squared)


def _check_estimator(estimator, dofmap, quad_order):
    if estimator.dofmap is not dofmap:
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
    this dof map and rule order, serves as the fields instead of a new
    build; the bits are the same.  ``exact`` None raises ``ValueError``.
    """
    if exact is None:
        raise ValueError("error norms need a manufactured solution")
    if estimator is None:
        fields = QuadFields(dofmap, quadrature_rule(quad_order))
    else:
        _check_estimator(estimator, dofmap, quad_order)
        fields = estimator

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
