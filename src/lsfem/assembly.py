"""Least-squares system assembly.

The bilinear form is b(w, v) = <L w, L v> over the domain, so the element
matrices are Gram matrices of the operator applied to the six local shape
functions, and the load vector tests F = (f, 0) against the same operator
images.  The assembled matrix is symmetric entry for entry (the local
matrices are exact Gram matrices and the accumulation order of the (j, k)
and (k, j) contributions is identical) and positive definite whenever the
continuous problem is well posed.

The element kernels keep the element index as the last, contiguous axis,
so every numpy operation runs over a whole block of elements.  Each local
entry is summed in one fixed order: the products ``(a * b) * w`` of two
operator components and the absolute weight, the three components summed
inside, the quadrature points summed outside, starting from +0.0.  The load
sums ``(f * a) * w`` over the points in the same way.  That is the order of
``np.einsum("tqjc,tqkc,tq->tjk")``, which the tests keep as the reference,
and it is what keeps the matrix bits: another association or a fused
multiply-add moves entries by rounding, and with them which elements the
marking picks when indicators tie.

Assembly does not factorize: ``exact_solve`` asks ``SparseSpd.factor`` for
a new factor, uses it for its one solve and drops it, and that
factorization is the positive-definiteness proof on the exact path.  Its
pivots, the diagonal of U, are read in place from SuperLU's supernodal
storage of L; ``lu.L`` and ``lu.U`` are never read, because reading either
one converts both factors to CSC and caches the copies on the factor for
its whole life.

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
# Elements per assembly block: bounds the (nq, 3, 6, block) operator images
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
    """CSR matrix wrapper that factorizes on request.

    The matrix must be symmetric entry for entry, as ``assemble_system``
    builds it.  ``factor`` builds a new factorization on every call and
    keeps none: it is a symmetric-mode LU with the diagonal pivot threshold
    disabled, so for a symmetric matrix it acts as a Cholesky-type
    decomposition, and any non-positive pivot proves the matrix indefinite
    and is rejected.

    SuperLU gets the transpose of the CSR matrix, which is a CSC matrix over
    the same three arrays (no copy; 26.4 MiB at 196,609 dofs) and, by
    symmetry, the same matrix.  Supernode relaxation is off (``relax=1``):
    the default relaxation merges small supernodes by storing explicit
    zeros, about as many as the true fill, while the MMD ordering stays the
    same and only rounding changes.  On the uniform L-shape with BLAS on one
    thread that took the factorization from 3.53 s to 1.26-1.46 s and the
    factor from 22,183,244 to 11,050,626 nonzeros at 196,609 dofs, from
    0.58 s to 0.22 s at 49,153 dofs and from 0.056 s to 0.037 s at 12,289.

    The pivots are read from SuperLU's supernodal storage; ``lu.L`` and
    ``lu.U`` are never read, because reading either one caches CSC copies of
    both factors for as long as the factor lives.
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")

    @property
    def n(self):
        return self.matrix.shape[0]

    def diagonal(self):
        return self.matrix.diagonal()

    def matvec(self, x):
        return self.matrix @ x

    def factor(self):
        """A new ``SuperLU`` factor of the matrix with positive pivots."""
        try:
            lu = splu(self.matrix.T,
                      permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0,
                      relax=1,
                      options={"SymmetricMode": True})
        except RuntimeError as exc:     # singular factor
            raise SolverError(f"factorization failed: {exc}") from exc
        pivots = _pivots(lu)
        if not np.all(np.isfinite(pivots)) or pivots.min() <= 0.0:
            raise SolverError(
                "matrix is not positive definite (non-positive pivot)")
        return lu


def _quad_points(rule, corners, out):
    """Physical points of ``rule`` on a set of elements, written to ``out``.

    ``corners[i]`` holds vertex i of every element, and ``out[q]`` receives
    point q in the same layout.  Each coordinate is summed as
    ``0.0 + l0 * x0 + l1 * x1 + l2 * x2``, one point at a time, so no
    temporary is larger than one point's worth.
    """
    for q, (l0, l1, l2) in enumerate(rule.points):
        out[q] = 0.0 + l0 * corners[0] + l1 * corners[1] + l2 * corners[2]
    return out


def _operator_images(mesh, problem, rule, block, scale):
    """Operator images of the six local shape functions, element axis last.

    Covers the elements in the slice ``block``; ``scale`` is
    ``mesh.rt_scale[block]`` (the caller computes ``rt_scale`` once, not
    once per block).  Returns (images, w, f): images has shape
    (nq, 3, 6, nb) for quadrature point, operator component (scalar row,
    two vector rows), local dof (the three hats, then the three edge
    fields) and element; w and f, the absolute weights and the load at the
    points, have shape (nq, nb).  The coefficients see the points as one
    (element, point)-ordered array.
    """
    geometry = mesh.geometry
    corners = np.ascontiguousarray(
        geometry["coords"][block].transpose(1, 2, 0))         # (3, 2, nb)
    nq, nb = len(rule.weights), corners.shape[-1]
    phys = _quad_points(rule, corners, np.empty((nq, 2, nb)))
    w = rule.weights[:, None] * geometry["area"][block]
    flat = phys.transpose(2, 0, 1).reshape(-1, 2)
    a = problem.a_fn(flat).reshape(nb, nq, 2, 2).transpose(1, 2, 3, 0)
    b = problem.b_fn(flat).reshape(nb, nq, 2).transpose(1, 2, 0)
    c = problem.c_fn(flat).reshape(nb, nq).T
    f = problem.f_fn(flat).reshape(nb, nq).T
    grads = geometry["hat_grads"][block].transpose(1, 2, 0)    # (3, 2, nb)
    images = np.empty((nq, 3, 6, nb))
    hats, edges = images[:, :, :3], images[:, :, 3:]
    # hats: state (lambda_j, grad lambda_j, 0, 0)
    hats[:, 0] = ((0.0 + b[:, None, 0] * grads[:, 0]
                   + b[:, None, 1] * grads[:, 1])
                  + c[:, None] * rule.points[:, :, None])
    hats[:, 1:] = (0.0 + a[:, :, None, 0] * grads[:, 0]
                   + a[:, :, None, 1] * grads[:, 1])
    # edge fields: state (0, 0, psi_i, div psi_i), psi_i = scale_i (x - x_i)
    scale = scale.T
    edges[:, 0] = -2.0 * scale
    np.subtract(phys[:, :, None], corners.transpose(1, 0, 2), out=edges[:, 1:])
    edges[:, 1:] *= -scale
    return images, w, f


# the upper triangle of a local matrix, row by row; row j starts at _STARTS[j]
_ROWS, _COLS = np.triu_indices(6)
_STARTS = np.flatnonzero(_ROWS == _COLS)


def _local_system(images, w, f):
    """Local matrices (nb, 6, 6) and loads (nb, 6) from ``_operator_images``.

    Every entry is summed in the order of the module docstring.  The +0.0
    that starts each sum over components is left out: it can only change
    the sign of a zero sum, and the accumulator, which starts from +0.0,
    erases that sign.
    """
    nb = images.shape[-1]
    gram = np.zeros((len(_ROWS), nb))
    load = np.zeros((6, nb))
    prod = np.empty((3, len(_ROWS), nb))
    part = np.empty((len(_ROWS), nb))
    for img, wq, fq in zip(images, w, f):
        for j, start in enumerate(_STARTS):
            np.multiply(img[:, j, None], img[:, j:],
                        out=prod[:, start:start + 6 - j])
        prod *= wq
        np.add(prod[0], prod[1], out=part)
        part += prod[2]
        gram += part
        load += (fq * img[0]) * wq
    local = np.empty((nb, 6, 6))
    local[:, _ROWS, _COLS] = gram.T
    local[:, _COLS, _ROWS] = gram.T
    return local, load.T


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
    for bit.  No factorization happens here; ``SparseSpd.factor`` builds one
    for each exact solve and rejects a matrix that is not positive
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
        local[block], local_rhs[block] = _local_system(
            *_operator_images(mesh, problem, rule, block, scale[block]))

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
        self.phys = np.empty((mesh.n_elements, len(rule.weights), 2))
        _quad_points(rule, coords.transpose(1, 0, 2),
                     self.phys.transpose(1, 0, 2))
        self.w_abs = rule.weights[None, :] * mesh.geometry["area"][:, None]
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
