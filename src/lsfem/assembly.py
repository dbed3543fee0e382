"""Least-squares system assembly.

The bilinear form is b(w, v) = <L w, L v> over the domain, so the element
matrices are Gram matrices of the operator applied to the six local shape
functions, and the load vector tests F = (f, 0) against the same operator
images.  The assembled matrix is symmetric entry for entry (the local
matrices are exact Gram matrices and the accumulation order of the (j, k)
and (k, j) contributions is identical) and positive definite whenever the
continuous problem is well posed.  Assembly does not factorize: the
exact solver builds the factor on first use, and that factorization is the
positive-definiteness proof on the exact path.  Its pivots, the diagonal
of U, are read in place from SuperLU's supernodal storage of L; ``lu.L``
and ``lu.U`` are never read, because reading either one converts both
factors to CSC and caches the copies on the factor for its whole life.

``QuadFields`` splits the evaluation of a discrete function at the
quadrature points into a level part (points, weights and the edge-field
tables, built once per mesh, dof map and rule) and a coefficient part
(gather the local coefficients, combine them with those tables).
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .errors import SolverError
from .quadrature import quadrature_rule
from .spaces import eval_local_basis

MAX_DOFS = 200_000
# Elements per assembly block: bounds the (block, nq, 6, 3) operator images
# and their companions, which would otherwise exceed the returned matrix.
_BLOCK = 4096

# SuperLU's storage types and value type (supermatrix.h)
_SLU_NC, _SLU_SC, _SLU_D = 0, 3, 1
_INT_P = ctypes.POINTER(ctypes.c_int)


class _SuperMatrix(ctypes.Structure):
    _fields_ = [("Stype", ctypes.c_int), ("Dtype", ctypes.c_int),
                ("Mtype", ctypes.c_int), ("nrow", ctypes.c_int),
                ("ncol", ctypes.c_int), ("Store", ctypes.c_void_p)]


class _SCformat(ctypes.Structure):
    """Supernodal storage of L; the diagonal block of a supernode holds
    the diagonal of U."""
    _fields_ = [("nnz", ctypes.c_int), ("nsuper", ctypes.c_int),
                ("nzval", ctypes.POINTER(ctypes.c_double)),
                ("nzval_colptr", _INT_P), ("rowind", _INT_P),
                ("rowind_colptr", _INT_P), ("col_to_sup", _INT_P),
                ("sup_to_col", _INT_P)]


class _SuperLUObject(ctypes.Structure):
    """Leading fields of scipy's ``SuperLUObject`` (_superluobject.h),
    whose ``SuperMatrix L, U`` are named ``lower`` and ``upper`` here."""
    _fields_ = [("head", ctypes.c_byte * object.__basicsize__),
                ("m", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t),
                ("lower", _SuperMatrix), ("upper", _SuperMatrix)]


def _pivots(lu):
    """Diagonal of U of a real square ``SuperLU`` factor, as a new array.

    Read in place from the supernodal storage of L: column j belongs to the
    supernode starting at column s, which stores its diagonal block first,
    so U[j, j] is entry j - s of column j there.  Raises ``SolverError``
    when the object's header is not the layout read here.
    """
    if not isinstance(lu, SuperLU):
        raise SolverError(f"expected a SuperLU factor, got {type(lu).__name__}")
    n = lu.shape[0]
    head = _SuperLUObject.from_address(id(lu))
    lower, upper = head.lower, head.upper
    if not (head.m == head.n == n
            and lower.Stype == _SLU_SC and lower.Dtype == _SLU_D
            and lower.nrow == lower.ncol == n and upper.Stype == _SLU_NC):
        raise SolverError("unrecognised SuperLU factor layout")
    store = _SCformat.from_address(lower.Store)
    colptr = np.ctypeslib.as_array(store.nzval_colptr, (n + 1,))
    col_to_sup = np.ctypeslib.as_array(store.col_to_sup, (n,))
    sup_to_col = np.ctypeslib.as_array(store.sup_to_col, (store.nsuper + 1,))
    nzval = np.ctypeslib.as_array(store.nzval, (colptr[n],))
    # fancy indexing copies, so nothing returned points into ``lu``
    return nzval[colptr[:n] + np.arange(n) - sup_to_col[col_to_sup]]


class SparseSpd:
    """CSR matrix wrapper with a cached sparse factorization.

    The factorization is a symmetric-mode LU with the diagonal pivot
    threshold disabled, so for a symmetric matrix it acts as a Cholesky-type
    decomposition: any non-positive pivot proves the matrix indefinite and
    is rejected.  The pivots are read from SuperLU's supernodal storage;
    ``lu.L`` and ``lu.U`` are never read, because reading either one caches
    CSC copies of both factors for as long as the factor lives.
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        self._factor = None

    @property
    def n(self):
        return self.matrix.shape[0]

    def diagonal(self):
        return self.matrix.diagonal()

    def matvec(self, x):
        return self.matrix @ x

    def factor(self):
        if self._factor is None:
            try:
                lu = splu(self.matrix.tocsc(),
                          permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
            except RuntimeError as exc:     # singular factor
                raise SolverError(f"factorization failed: {exc}") from exc
            pivots = _pivots(lu)
            if not np.all(np.isfinite(pivots)) or pivots.min() <= 0.0:
                raise SolverError(
                    "matrix is not positive definite (non-positive pivot)")
            self._factor = lu
        return self._factor


def _quad_points(mesh, rule, block=slice(None)):
    """Physical quadrature points (nb, nq, 2) and absolute weights (nb, nq)
    of the elements in ``block``, all of them by default."""
    geometry = mesh.geometry
    phys = np.einsum("qi,tid->tqd", rule.points, geometry["coords"][block])
    w_abs = rule.weights[None, :] * geometry["area"][block, None]
    return phys, w_abs


def operator_basis_images(mesh, problem, rule, block, scale):
    """Operator images of all local shape functions at quadrature points.

    Covers the elements in the slice ``block``; ``scale`` is
    ``mesh.rt_scale[block]`` (the caller computes ``rt_scale`` once, not
    once per block).  Returns (images, w_abs, phys) where images has shape
    (nb, nq, 6, 3): local dofs are the three hats then the three edge
    fields, and the last axis carries the operator components (scalar row,
    two vector rows).
    """
    geometry = mesh.geometry
    phys, w_abs = _quad_points(mesh, rule, block)
    nb, nq = w_abs.shape
    flat = phys.reshape(-1, 2)
    a_vals = problem.a_fn(flat).reshape(nb, nq, 2, 2)
    b_vals = problem.b_fn(flat).reshape(nb, nq, 2)
    c_vals = problem.c_fn(flat).reshape(nb, nq)

    grads = geometry["hat_grads"][block]                # (nb, 3, 2)
    images = np.zeros((nb, nq, 6, 3))
    # hats: state (lambda_j, grad lambda_j, 0, 0)
    hat_vals = rule.points                              # (nq, 3)
    images[:, :, :3, 0] = (np.einsum("tqd,tjd->tqj", b_vals, grads)
                           + c_vals[:, :, None] * hat_vals[None, :, :])
    a_grad = np.einsum("tqde,tje->tqjd", a_vals, grads)
    images[:, :, :3, 1] = a_grad[..., 0]
    images[:, :, :3, 2] = a_grad[..., 1]
    # edge fields: state (0, 0, psi_i, div psi_i)
    rel = phys[:, :, None, :] - geometry["coords"][block, None]   # (nb, nq, 3, 2)
    psi = scale[:, None, :, None] * rel
    images[:, :, 3:, 0] = -2.0 * scale[:, None, :]
    images[:, :, 3:, 1] = -psi[..., 0]
    images[:, :, 3:, 2] = -psi[..., 1]
    return images, w_abs, phys


def data_images(problem, phys):
    """F = (f, 0) at the quadrature points, shape (nt, nq, 3)."""
    nt, nq = phys.shape[:2]
    F = np.zeros((nt, nq, 3))
    F[:, :, 0] = problem.f_fn(phys.reshape(-1, 2)).reshape(nt, nq)
    return F


def _scatter_csr(rows, cols, vals, n):
    """Deterministic duplicate summation into an (n, n) CSR matrix.

    Entries with a negative row or column (constrained dofs) are dropped.
    The rest are ordered by (row, col) and, within one position, by input
    order, then summed sequentially; the single key ``rows * n + cols``
    under a stable sort gives exactly that order.
    """
    key = rows * n + cols
    keep = (rows >= 0) & (cols >= 0)
    del rows, cols
    key = key[keep]
    vals = vals[keep]
    del keep
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = vals[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    summed = np.add.reduceat(vals, starts)
    del vals
    r, c = np.divmod(key[starts], n)
    del key, starts
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(r, minlength=n), out=indptr[1:])
    return sp.csr_matrix((summed, c, indptr), shape=(n, n))


def assemble_system(mesh, dofmap, problem, quad_order=4):
    """Assemble the least-squares Galerkin matrix and load vector.

    Local contributions are accumulated in element order (then local dof
    order), so reassembling the same inputs reproduces the same matrix bit
    for bit.  No factorization happens here; ``SparseSpd.factor`` builds it
    on the first exact solve and rejects a matrix that is not positive
    definite.
    """
    if dofmap.n_total > MAX_DOFS:
        raise ValueError(
            f"system size {dofmap.n_total} exceeds the supported maximum {MAX_DOFS}")
    rule = quadrature_rule(quad_order)
    nt, n = mesh.n_elements, dofmap.n_total
    local = np.empty((nt, 6, 6))
    local_rhs = np.empty((nt, 6))
    scale = mesh.rt_scale
    for start in range(0, nt, _BLOCK):
        block = slice(start, start + _BLOCK)
        images, w_abs, phys = operator_basis_images(mesh, problem, rule, block,
                                                    scale[block])
        local[block] = np.einsum("tqjc,tqkc,tq->tjk", images, images, w_abs)
        local_rhs[block] = np.einsum("tqc,tqjc,tq->tj",
                                     data_images(problem, phys), images, w_abs)

    gdofs = dofmap.element_dofs                          # (nt, 6)
    rhs = np.zeros(n)
    rkeep = gdofs.ravel() >= 0
    np.add.at(rhs, gdofs.ravel()[rkeep], local_rhs.ravel()[rkeep])
    del local_rhs, rkeep
    matrix = _scatter_csr(np.repeat(gdofs, 6, axis=1).ravel(),
                          np.tile(gdofs, (1, 6)).ravel(), local.ravel(), n)
    return SparseSpd(matrix), rhs


def gather_element_coefs(dofmap, coef):
    """Per-element local coefficient vectors (nt, 6); constrained dofs are zero."""
    gdofs = dofmap.element_dofs
    safe = np.clip(gdofs, 0, None)
    return np.where(gdofs >= 0, coef[safe], 0.0)


class QuadFields:
    """Level part of the discrete fields at the quadrature points of a rule.

    Holds the physical points ``phys`` (nt, nq, 2), the absolute weights
    ``w_abs`` (nt, nq) and the edge-field tables; ``evaluate`` combines them
    with one coefficient vector.  The tables are never written to, so one
    instance serves any number of vectors on its level.
    """

    def __init__(self, mesh, dofmap, rule):
        coords = mesh.geometry["coords"]
        self.dofmap = dofmap
        self.hat_values = rule.points                   # (nq, 3)
        self.hat_grads = mesh.geometry["hat_grads"]     # (nt, 3, 2)
        self.phys, self.w_abs = _quad_points(mesh, rule)
        self.scale = mesh.rt_scale                      # (nt, 3)
        # x - (opposite vertex of edge i), one (nt, nq, 2) array per edge
        self.rel = [self.phys - coords[:, None, i, :] for i in range(3)]

    def evaluate(self, coef):
        """Fields of the discrete function ``coef``.

        Returns (u, grad_u, sigma, div_sigma) with shapes (nt, nq), (nt, 2),
        (nt, nq, 2), (nt,): the gradient and the divergence are constant on
        each element.
        """
        cf = gather_element_coefs(self.dofmap, np.asarray(coef, dtype=float))
        u = np.einsum("qj,tj->tq", self.hat_values, cf[:, :3])
        grad = np.einsum("tjd,tj->td", self.hat_grads, cf[:, :3])
        scaled = self.scale * cf[:, 3:]
        sigma = (self.rel[0] * scaled[:, None, 0, None]
                 + self.rel[1] * scaled[:, None, 1, None]
                 + self.rel[2] * scaled[:, None, 2, None])
        div = (2.0 * scaled).sum(axis=1)
        return u, grad, sigma, div


def eval_discrete(mesh, dofmap, coef, elem, point):
    """Evaluate one discrete function inside one element.

    Returns (u, grad_u, sigma, div_sigma) at the point; the point must lie
    in the closed element.
    """
    coef = np.asarray(coef, dtype=float)
    if coef.shape != (dofmap.n_total,):
        raise ValueError("coefficient vector length does not match the dof map")
    basis = eval_local_basis(mesh, dofmap, elem, point)
    local = np.where(basis.dofs >= 0, coef[np.clip(basis.dofs, 0, None)], 0.0)
    u = float(local[:3] @ basis.hat_values)
    grad = basis.hat_grads.T @ local[:3]
    sigma = basis.rt_values.T @ local[3:]
    div = float(local[3:] @ basis.rt_divs)
    return u, grad, sigma, div
