"""Lowest-order product space: P1 hats with zero trace times RT0 edge fields.

Scalar dofs live at interior vertices (boundary values are constrained to
zero by omission).  Vector dofs live on edges; the coefficient of an edge
dof equals the constant normal flux of the field across that edge, measured
along the global edge normal ``Mesh.edge_normals``: the normal of an
interior edge points from its lower-index adjacent element into the
higher-index one, boundary normals point outward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import ancestor_map

_BARY_TOL = 1e-12


class DofMap:
    """Dof numbering of the product space on one mesh, held as ``mesh``.

    Scalar block first (interior vertices in ascending vertex order), then
    one dof per edge in the mesh's lexicographic edge order.  It keeps only
    the per-vertex numbering; ``element_dofs`` gathers the dofs of the
    elements a caller reads, so no (nt, 6) table lives with the level.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        interior = np.flatnonzero(~mesh.boundary_vertex_mask)
        self.interior_vertices = interior
        self.n_h1 = int(interior.size)
        self.n_rt = int(mesh.edges.shape[0])
        self.n_total = self.n_h1 + self.n_rt
        vert_dof = np.full(mesh.n_vertices, -1, dtype=np.intp)
        vert_dof[interior] = np.arange(self.n_h1, dtype=np.intp)
        self.vertex_dof = vert_dof

    def element_dofs(self, block=slice(None)):
        """Global dofs (nb, 6) of the elements ``block`` (a slice, an index
        array or one index): the three vertex dofs, -1 where constrained,
        then the three edge dofs."""
        mesh = self.mesh
        return np.concatenate([self.vertex_dof[mesh.elements[block]],
                               self.n_h1 + mesh.elem_edges[block]], axis=-1)


def build_dofmap(mesh):
    return DofMap(mesh)


@dataclass
class LocalBasis:
    """All six local shape functions of one element at one point."""

    hat_values: np.ndarray      # (3,)
    hat_grads: np.ndarray       # (3, 2)
    rt_values: np.ndarray       # (3, 2)
    rt_divs: np.ndarray         # (3,)
    dofs: np.ndarray            # (6,) global dof ids, -1 where constrained


def barycentric(coords, point):
    """Barycentric coordinates of a physical point in a triangle."""
    mat = np.column_stack([coords[1] - coords[0], coords[2] - coords[0]])
    lam12 = np.linalg.solve(mat, np.asarray(point, dtype=float) - coords[0])
    return np.array([1.0 - lam12[0] - lam12[1], lam12[0], lam12[1]])


def eval_local_basis(dofmap, elem, point):
    """Evaluate the element's shape functions on ``dofmap.mesh`` at one point.

    ``point`` is either a physical coordinate (2,) or barycentric (3,).
    Points outside the closed element (up to barycentric tolerance 1e-12)
    are rejected.
    """
    mesh = dofmap.mesh
    if not 0 <= elem < mesh.n_elements:
        raise ValueError(f"element index {elem} out of range")
    geometry = mesh.geometry
    coords, hat_grads = mesh.element_geometry(elem)
    point = np.asarray(point, dtype=float)
    if point.shape == (3,):
        lam = point
        phys = lam @ coords
    elif point.shape == (2,):
        lam = barycentric(coords, point)
        phys = point
    else:
        raise ValueError("point must be physical (2,) or barycentric (3,)")
    if lam.min() < -_BARY_TOL or lam.max() > 1.0 + _BARY_TOL:
        raise ValueError(f"point {phys} lies outside element {elem}")

    area = geometry["area"][elem]
    signs = mesh.edge_signs[elem]
    edge_len = geometry["edge_len"][elem]
    rt_values = np.empty((3, 2))
    rt_divs = np.empty(3)
    for i in range(3):
        scale = signs[i] * edge_len[i] / (2.0 * area)
        rt_values[i] = scale * (phys - coords[i])
        rt_divs[i] = 2.0 * scale
    return LocalBasis(hat_values=lam,
                      hat_grads=hat_grads,
                      rt_values=rt_values,
                      rt_divs=rt_divs,
                      dofs=dofmap.element_dofs(elem))


def eval_discrete(dofmap, coef, elem, point):
    """Evaluate one discrete function inside one element of ``dofmap.mesh``.

    Returns (u, grad_u, sigma, div_sigma) at the point; the point must lie
    in the closed element.
    """
    coef = np.asarray(coef, dtype=float)
    if coef.shape != (dofmap.n_total,):
        raise ValueError("coefficient vector length does not match the dof map")
    basis = eval_local_basis(dofmap, elem, point)
    local = np.where(basis.dofs >= 0, coef[np.clip(basis.dofs, 0, None)], 0.0)
    u = float(local[:3] @ basis.hat_values)
    grad = basis.hat_grads.T @ local[:3]
    sigma = basis.rt_values.T @ local[3:]
    div = float(local[3:] @ basis.rt_divs)
    return u, grad, sigma, div


# -- prolongation ------------------------------------------------------------

def prolongation_matrix(coarse_dofmap, fine_dofmap):
    """Sparse matrix carrying coarse coefficients to the fine space.

    Every fine element lies inside one coarse element, its ancestor from
    ``ancestor_map``, where the coarse function is a single affine field.
    The scalar rows evaluate it at each fine interior vertex: the vertex's
    barycentric coordinates in the ancestor of the lowest-index fine element
    containing it.  The edge rows take the normal flux of the coarse field
    at each fine edge midpoint along ``fine_mesh.edge_normals``, evaluated
    in the ancestor of ``edge_elements[e, 0]``; the flux is constant along
    the edge, so the midpoint value is exact.  Each mesh is its dof map's
    ``mesh``; ``fine_mesh`` must be ``coarse_mesh`` or one refine_nvb call
    on it, else ``ValueError``; across several calls, multiply the
    one-level matrices.
    """
    coarse_mesh, fine_mesh = coarse_dofmap.mesh, fine_dofmap.mesh
    amap = ancestor_map(fine_mesh, coarse_mesh)
    # formed once for the whole coarse mesh and gathered below: the edge
    # ancestors name each coarse element about twice, so forming the
    # tables per ancestor would cost more
    coords, hat_grads = coarse_mesh.element_geometry()
    c_edofs = coarse_dofmap.element_dofs()

    verts = fine_dofmap.interior_vertices
    used, first = np.unique(fine_mesh.elements.ravel(), return_index=True)
    owner = np.empty(fine_mesh.n_vertices, dtype=np.intp)
    owner[used] = first // 3
    t_v = amap[owner[verts]]
    # hat j is grad_j . (x - c_{j+1}), since it vanishes at vertex j + 1
    offset = fine_mesh.vertices[verts][:, None] - coords[t_v][:, [1, 2, 0]]
    lam = np.einsum("njk,njk->nj", hat_grads[t_v], offset)

    mid = fine_mesh.vertices[fine_mesh.edges].mean(axis=1)
    t_e = amap[fine_mesh.edge_elements[:, 0]]
    psi = coarse_mesh.rt_scale[t_e][..., None] * (mid[:, None] - coords[t_e])
    flux = np.einsum("ejk,ek->ej", psi, fine_mesh.edge_normals)

    # fine dofs in order: interior vertices ascending, then edges
    rows = np.repeat(np.arange(fine_dofmap.n_total), 3)
    cols = np.concatenate([c_edofs[t_v, :3].ravel(), c_edofs[t_e, 3:].ravel()])
    vals = np.concatenate([lam.ravel(), flux.ravel()])
    keep = (cols >= 0) & (vals != 0.0)
    return sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(fine_dofmap.n_total, coarse_dofmap.n_total))


def prolongate(coarse_dofmap, fine_dofmap, coef):
    """Represent a coarse discrete function exactly in the fine space."""
    coef = np.asarray(coef, dtype=float)
    if coef.shape != (coarse_dofmap.n_total,):
        raise ValueError("coefficient vector length does not match the dof map")
    if fine_dofmap.mesh is coarse_dofmap.mesh:
        return coef.copy()
    return prolongation_matrix(coarse_dofmap, fine_dofmap) @ coef
