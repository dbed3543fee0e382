"""Least-squares system assembly.

The bilinear form is b(w, v) = <L w, L v> over the domain, so the element
matrices are Gram matrices of the operator applied to the six local shape
functions, and the load vector tests F = (f, 0) against the same operator
images.  Each local matrix is kept as its 21 upper-triangle entries, and
the scatter reads the (j, k) and (k, j) contributions from the same entry
in the same order, so the assembled matrix is symmetric entry for entry.
It is positive definite whenever the continuous problem is well posed.
The scatter works through bounded blocks of matrix rows, so no array of
the 36 nt local entries, their keys or their sort order is ever built.
It counts before it fills: the entries of each row follow from the mesh
topology (``csr_row_lengths``), so the CSR arrays are allocated once, at
their final length, and every block writes straight into them.  The load
is summed block by block, so no table of local loads is kept either.

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
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .quadrature import quadrature_rule
from .solver import SparseSpd

MAX_DOFS = 200_000
# Elements per assembly block: bounds the (nq, 3, 6, block) operator images
# and their companions, which would otherwise exceed the returned matrix.
_BLOCK = 4096
# Matrix entries per scatter block: bounds the keys, sort order and values
# that ``_scatter_csr`` holds at a time; a small level is one block.
_SCATTER_BLOCK = 2 ** 16

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

    Covers the elements in the slice ``block``, whose corners and hat
    gradients it forms with ``mesh.element_geometry``; ``scale`` is
    ``mesh.rt_scale[block]`` (the caller computes ``rt_scale`` once, not
    once per block).  Returns (images, w, f): images has shape
    (nq, 3, 6, nb) for quadrature point, operator component (scalar row,
    two vector rows), local dof (the three hats, then the three edge
    fields) and element; w and f, the absolute weights and the load at the
    points, have shape (nq, nb).  The load sees the points as one
    (element, point)-ordered array; the coefficients a, b and c are the
    constants of ``problem``.
    """
    coords, grads = mesh.element_geometry(block)
    corners = np.ascontiguousarray(coords.transpose(1, 2, 0))  # (3, 2, nb)
    nq, nb = len(rule.weights), corners.shape[-1]
    phys = _quad_points(rule, corners, np.empty((nq, 2, nb)))
    w = rule.weights[:, None] * mesh.geometry["area"][block]
    flat = phys.transpose(2, 0, 1).reshape(-1, 2)
    f = problem.f_fn(flat).reshape(nb, nq).T
    a, b, c = problem.a, problem.b, problem.c
    grads = grads.transpose(1, 2, 0)                           # (3, 2, nb)
    images = np.empty((nq, 3, 6, nb))
    hats, edges = images[:, :, :3], images[:, :, 3:]
    # hats: state (lambda_j, grad lambda_j, 0, 0)
    hats[:, 0] = ((0.0 + b[0] * grads[:, 0] + b[1] * grads[:, 1])
                  + c * rule.points[:, :, None])
    hats[:, 1:] = (0.0 + a[:, 0, None, None] * grads[:, 0]
                   + a[:, 1, None, None] * grads[:, 1])
    # edge fields: state (0, 0, psi_i, div psi_i), psi_i = scale_i (x - x_i)
    scale = scale.T
    edges[:, 0] = -2.0 * scale
    np.subtract(phys[:, :, None], corners.transpose(1, 0, 2), out=edges[:, 1:])
    edges[:, 1:] *= -scale
    return images, w, f


# the upper triangle of a local matrix, row by row; row j starts at _STARTS[j]
_ROWS, _COLS = np.triu_indices(6)
_STARTS = np.flatnonzero(_ROWS == _COLS)
# local entry (j, k) -> its index in the upper triangle, the same for (k, j)
_UPPER = np.empty((6, 6), dtype=np.intp)
_UPPER[_ROWS, _COLS] = _UPPER[_COLS, _ROWS] = np.arange(len(_ROWS))


def _local_system(images, w, f):
    """Local matrices and loads from ``_operator_images``.

    Returns (upper, load) with shapes (nb, 21) and (nb, 6): ``upper`` holds
    the upper triangle of each symmetric local matrix row by row, entry
    (j, k) at ``_UPPER[j, k]``, which is also where (k, j) reads it.  Every
    entry is summed in the order of the module docstring.  The +0.0 that
    starts each sum over components is left out: it can only change the
    sign of a zero sum, and the accumulator, which starts from +0.0, erases
    that sign.
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
    return gram.T, load.T


def csr_row_lengths(dofmap):
    """Number of stored entries in each row of the level's matrix.

    Entry (j, k) is stored when dofs j and k share an element, so the rows
    follow from the topology of ``dofmap.mesh`` alone, in O(nt):

    - interior vertex v: v itself, its interior neighbours, its incident
      edges and, for each element at v, the edge opposite v;
    - edge e: the interior vertices among its endpoints and its one or two
      opposite vertices, and the 5 edges of its two elements (3 of its one
      element on the boundary).
    """
    mesh = dofmap.mesh
    nv, edges, elements = mesh.n_vertices, mesh.edges, mesh.elements
    interior = dofmap.vertex_dof >= 0
    a, b = interior[edges[:, 0]], interior[edges[:, 1]]
    inner = np.compress(a & b, edges, axis=0)     # both ends interior
    vertex = (1 + np.bincount(inner.ravel(), minlength=nv)
              + np.bincount(edges.ravel(), minlength=nv)
              + np.bincount(elements.ravel(), minlength=nv))
    # local edge i lies opposite local vertex i
    opposite = np.bincount(np.compress(interior[elements.ravel()],
                                       mesh.elem_edges.ravel()),
                           minlength=len(edges))
    edge = (np.add(a, b, dtype=np.intp) + opposite
            + np.where(mesh.boundary_edge_mask, 3, 5))
    return np.concatenate([vertex[dofmap.interior_vertices], edge])


def _scatter_csr(element_dofs, upper, n, row_lengths):
    """Deterministic duplicate summation of symmetric local matrices into an
    (n, n) CSR matrix with ``row_lengths[i]`` entries in row i.

    Element e adds ``upper[e, _UPPER[j, k]]`` at (``element_dofs[e, j]``,
    ``element_dofs[e, k]``); an entry whose row or column is -1 (a
    constrained dof) is dropped, and any other dof outside [0, n) raises
    ``ValueError``.  The contributions to one position are ordered by input
    order (element, then j, then k), and ``np.add.reduceat`` sums the run
    c0, ..., ck as ``c0 + (c1 + ... + ck)``, the inner sum sequential for
    runs of up to 8 values and pairwise in longer ones.  The final meshes
    of the five shipped configs have at most 8 elements at a vertex.  A
    test pins this order against numpy upgrades.

    The 6 nt (element, local row) slots are grouped into ranges of rows of
    about ``_SCATTER_BLOCK`` entries by a stable sort of small block ids.
    Within a block, a stable sort of row offsets orders the slots by row,
    each row's in input order; the block's entries are then ordered by the
    key ``row * n + col`` under a stable sort.  Every sort is stable, and
    each position lies in exactly one block, so the runs and their sums are
    those of one stable sort over all entries, while no array over the
    36 nt entries is built.  Block ids and row offsets are small integers,
    which numpy sorts by radix, and the keys of rows already in order leave
    the key sort short runs.

    ``data`` and ``indices`` are allocated once, at the length the row
    lengths give, and each block writes its sums and columns straight into
    its rows' slice of them (count, then fill, as ``cs_compress`` in
    Davis, *Direct Methods for Sparse Linear Systems*, 2006).  A block
    whose distinct entries per row differ from ``row_lengths`` raises
    ``ValueError``, so a wrong count cannot produce a corrupt matrix.
    """
    element_dofs = np.asarray(element_dofs, dtype=np.intp)
    row_lengths = np.asarray(row_lengths)
    if row_lengths.shape != (n,):
        raise ValueError(f"row_lengths must have shape ({n},)")
    dofs = element_dofs.ravel()
    if dofs.size and (dofs.min() < -1 or dofs.max() >= n):
        raise ValueError(f"element dofs must lie in [-1, {n})")
    slots = np.flatnonzero(dofs >= 0)
    # rows whose first entry falls in the same _SCATTER_BLOCK form a block
    entries = 6 * np.bincount(dofs[slots], minlength=n)
    row_block = (np.cumsum(entries) - entries) // _SCATTER_BLOCK
    n_blocks = int(row_block.max(initial=0)) + 1
    slot_block = row_block.astype(np.min_scalar_type(n_blocks))[dofs[slots]]
    slots = slots[np.argsort(slot_block, kind="stable")]
    bounds = np.zeros(n_blocks + 1, dtype=np.intp)
    np.cumsum(np.bincount(slot_block, minlength=n_blocks), out=bounds[1:])
    # block b holds rows first_row[b] .. first_row[b + 1] - 1
    first_row = np.searchsorted(row_block, np.arange(n_blocks + 1))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(row_lengths, out=indptr[1:])
    fits = max(n, indptr[-1]) <= np.iinfo(np.int32).max
    indptr = indptr.astype(np.int32 if fits else np.intp, copy=False)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=indptr.dtype)
    for lo, hi, r0, r1 in zip(bounds[:-1], bounds[1:],
                              first_row[:-1], first_row[1:]):
        block = slots[lo:hi]
        rows = dofs[block]
        offset = rows - rows.min(initial=n)
        offset = offset.astype(np.min_scalar_type(offset.max(initial=0)))
        order = np.argsort(offset, kind="stable")
        block = block[order]
        elem, j = np.divmod(block, 6)
        rows = np.repeat(rows[order], 6)
        cols = np.take(element_dofs, elem, axis=0).ravel()
        vals = np.take(upper, upper.shape[1] * elem[:, None]
                       + np.take(_UPPER, j, axis=0)).ravel()
        keep = cols >= 0
        key = (rows * n + cols)[keep]
        vals = vals[keep]
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        r, c = np.divmod(key[starts], n)
        counts = np.bincount(r - r0, minlength=r1 - r0)
        if (counts != row_lengths[r0:r1]).any():
            raise ValueError("row lengths do not match the entries")
        pos, end = indptr[r0], indptr[r1]
        np.add.reduceat(vals[order], starts, out=data[pos:end])
        indices[pos:end] = c
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_system(mesh, dofmap, problem, quad_order=4):
    """Assemble the least-squares Galerkin matrix and load vector.

    The contributions to one matrix entry come in element order (then
    local dof order) and are summed as ``_scatter_csr`` states, so
    reassembling the same inputs reproduces the same matrix bit for bit.
    The load is accumulated block by block in the same element order, so
    no table of local loads is kept.  Corners and hat gradients are
    formed per block; the (nt, 6) dof table, which the scatter reads, is
    gathered here and dies when assembly returns.  No factorization
    happens here;
    ``SparseSpd.factor`` builds one for each exact solve and rejects a
    matrix that is not positive definite.  ``mesh`` must be
    ``dofmap.mesh``, else ``ValueError``.
    """
    if mesh is not dofmap.mesh:
        raise ValueError("the dof map belongs to another mesh")
    if dofmap.n_total > MAX_DOFS:
        raise ValueError(
            f"system size {dofmap.n_total} exceeds the supported maximum {MAX_DOFS}")
    rule = quadrature_rule(quad_order)
    nt, n = mesh.n_elements, dofmap.n_total
    gdofs = dofmap.element_dofs()                        # (nt, 6)
    upper = np.empty((nt, len(_ROWS)))
    rhs = np.zeros(n)
    scale = mesh.rt_scale
    for start in range(0, nt, _BLOCK):
        block = slice(start, start + _BLOCK)
        upper[block], load = _local_system(
            *_operator_images(mesh, problem, rule, block, scale[block]))
        dofs = gdofs[block].ravel()
        keep = dofs >= 0
        np.add.at(rhs, dofs[keep], load.ravel()[keep])
    del scale           # nt x 3 floats the scatter does not need
    matrix = _scatter_csr(gdofs, upper, n, csr_row_lengths(dofmap))
    return SparseSpd(matrix), rhs

