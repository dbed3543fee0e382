"""Conforming triangle meshes with newest-vertex-bisection refinement.

An element is stored as three vertex indices ``(v0, v1, v2)`` in
counterclockwise order; the edge ``v0 -- v1`` is its refinement edge and
``v2`` plays the role of the newest vertex.  Bisection inserts the midpoint
``m`` of the refinement edge and produces the children ``(v2, v0, m)`` and
``(v1, v2, m)``, so each child's refinement edge is one of the parent's two
remaining edges and ``m`` sits opposite both of them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, MeshValidityError

# local edge i is the edge opposite local vertex i
_LOCAL_EDGES = np.array([[1, 2], [2, 0], [0, 1]], dtype=np.intp)


def _edge_vectors(coords):
    """Vectors (..., 3, 2) of the local edges of corners ``coords``: edge i
    runs from vertex i + 1 to vertex i + 2.  ``np.take`` gathers along the
    vertex axis several times faster than fancy indexing."""
    return (np.take(coords, [2, 0, 1], axis=-2)
            - np.take(coords, [1, 2, 0], axis=-2))


@dataclass
class MeshDiagnostics:
    """Report produced by :func:`validate`."""

    conformity_violations: list
    inverted_elements: list
    orphan_vertices: list
    duplicate_elements: list

    @property
    def ok(self):
        return not (self.conformity_violations or self.inverted_elements
                    or self.orphan_vertices or self.duplicate_elements)


class Mesh:
    """Immutable conforming triangulation.

    Parameters
    ----------
    vertices : (nv, 2) float array, finite
    elements : (nt, 3) array of an integer dtype, counterclockwise,
               refinement edge first; any other dtype raises
               ``MeshValidityError`` rather than being truncated

    A mesh returned by ``refine_nvb`` also has ``parent``: for each element,
    its containing element in the mesh it was refined from, which it links
    only weakly, so no mesh keeps another alive.  Elsewhere it is None.
    """

    def __init__(self, vertices, elements):
        vertices = np.array(vertices, dtype=float)
        elements = np.array(elements)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshValidityError("vertices must be an (nv, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshValidityError("elements must be an (nt, 3) array")
        if elements.dtype.kind not in "iu":
            raise MeshValidityError("elements must hold integer vertex "
                                    f"indices, not {elements.dtype}")
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            raise MeshValidityError(
                f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
        if elements.size and (elements.min() < 0
                              or elements.max() >= len(vertices)):
            raise MeshValidityError("element vertex index out of range")
        elements = elements.astype(np.intp, copy=False)
        repeats = (np.diff(np.sort(elements, axis=1), axis=1) == 0).any(axis=1)
        if repeats.any():
            raise MeshValidityError(
                f"element {int(np.argmax(repeats))} repeats a vertex")
        self._adopt(vertices, elements)

    @classmethod
    def _refined(cls, vertices, elements):
        """A mesh over arrays that ``refine_nvb`` has just built from a valid
        mesh: float64 vertices and intp elements, in range and with no
        repeated vertex by construction, so neither is copied or re-checked
        for that.  The orientation check stays, on the geometry that is
        computed anyway."""
        mesh = cls.__new__(cls)
        mesh._adopt(vertices, elements)
        return mesh

    def _adopt(self, vertices, elements):
        """Take ownership of checked arrays and check the orientation."""
        self.vertices = vertices
        self.elements = elements
        self.vertices.setflags(write=False)
        self.elements.setflags(write=False)
        self.parent = None
        self._refined_from = None       # weakref.ref, set by refine_nvb
        areas = self.signed_areas()
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise MeshValidityError(
                f"element {bad} is degenerate or clockwise (signed area "
                f"{areas[bad]:.3e})")

    # -- basic geometry ----------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @cached_property
    def geometry(self):
        """Per-element geometry, computed once per mesh (read-only arrays).

        A dict with:
          area      (nt,) signed area, positive for a valid element
          edge_len  (nt, 3) length of local edge i, opposite vertex i

        Corner coordinates and hat gradients are not kept: each is a gather
        or a few vector operations away, so ``element_geometry`` forms them
        for the elements a caller reads.
        """
        coords = self.vertices[self.elements]
        d1 = coords[:, 1] - coords[:, 0]
        d2 = coords[:, 2] - coords[:, 0]
        area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        edge_vec = _edge_vectors(coords)
        edge_len = np.hypot(edge_vec[..., 0], edge_vec[..., 1])
        geometry = {"area": area, "edge_len": edge_len}
        for array in geometry.values():
            array.setflags(write=False)
        return geometry

    def element_geometry(self, block=slice(None)):
        """Corner coordinates and hat gradients of the elements ``block``.

        ``block`` indexes the element axis: a slice, an index array or one
        index.  Returns (coords, hat_grads), each (nb, 3, 2) (or (3, 2) for
        one index): vertex i of each element and the gradient of the hat
        of local vertex i.  Formed on each call, not stored; each element's
        values do not depend on the block it is formed in.
        """
        coords = self.vertices[self.elements[block]]
        edge_vec = _edge_vectors(coords)
        # grad of hat i is perp(edge i) / (2 area), perp(x, y) = (-y, x)
        hat_grads = np.stack([-edge_vec[..., 1], edge_vec[..., 0]], axis=-1)
        hat_grads /= (2.0 * self.geometry["area"][block])[..., None, None]
        return coords, hat_grads

    def signed_areas(self):
        return self.geometry["area"]

    @property
    def rt_scale(self):
        """(nt, 3) factor of the RT0 edge fields: the field of local edge i
        is ``rt_scale[:, i] * (x - coords[:, i])``, its divergence twice
        the factor, with ``coords`` from ``element_geometry``.  Computed on
        each call, not stored."""
        return self.edge_signs * self.geometry["edge_len"] / (
            2.0 * self.geometry["area"])[:, None]

    # -- cached topology ---------------------------------------------------

    @cached_property
    def _edge_tables(self):
        """Edge numbering and incidence, computed once per mesh.

        A dict with:
          edges         (ne, 2) sorted vertex pairs, lexicographically ordered
          elem_edges    (nt, 3) global edge index of each local edge
          edge_elements (ne, 2) adjacent element indices, ascending, -1 pad
          edge_signs    (nt, 3) int8, +1 where the element is the
                        lowest-index element adjacent to the edge, else -1
        """
        nt = self.n_elements
        pairs = np.sort(self.elements[:, _LOCAL_EDGES].reshape(-1, 2), axis=1)
        # a * nv + b orders sorted pairs lexicographically
        keys = pairs[:, 0] * self.n_vertices + pairs[:, 1]
        _, inverse = np.unique(keys, return_inverse=True)
        elem_edges = inverse.reshape(nt, 3)
        counts = np.bincount(inverse)
        if counts.size and counts.max() > 2:
            raise MeshValidityError("an edge is shared by more than two elements")
        # local edges grouped by edge, ascending element within each group;
        # the first of each group is the edge's positively oriented one
        order = np.argsort(inverse, kind="stable")
        first = np.cumsum(counts) - counts
        lowest = order[first]
        edges = pairs[lowest]
        edge_elements = np.full((counts.size, 2), -1, dtype=np.intp)
        edge_elements[:, 0] = lowest // 3
        shared = counts == 2
        edge_elements[shared, 1] = order[first[shared] + 1] // 3
        signs = np.full(3 * nt, -1, dtype=np.int8)
        signs[lowest] = 1
        return dict(edges=edges, elem_edges=elem_edges,
                    edge_elements=edge_elements,
                    edge_signs=signs.reshape(nt, 3))

    @property
    def edges(self):
        return self._edge_tables["edges"]

    @property
    def elem_edges(self):
        return self._edge_tables["elem_edges"]

    @property
    def edge_elements(self):
        return self._edge_tables["edge_elements"]

    @property
    def edge_signs(self):
        return self._edge_tables["edge_signs"]

    @cached_property
    def edge_normals(self):
        """(ne, 2) global edge normals: the unit normal pointing out of
        ``edge_elements[e, 0]``, hence outward on the boundary.  Built on
        first use, since only prolongation and the checks read them."""
        # right-hand perp of the CCW tangent of local edge i points out
        tangent = _edge_vectors(self.vertices[self.elements])
        normal = tangent[..., ::-1] * [1.0, -1.0]
        normal /= self.geometry["edge_len"][..., None]
        # each edge takes the normal of its positively oriented local edge
        lowest = np.flatnonzero(self.edge_signs.ravel() == 1)
        edge_normals = np.empty((len(lowest), 2))
        edge_normals[self.elem_edges.ravel()[lowest]] = (
            normal.reshape(-1, 2)[lowest])
        return edge_normals

    @property
    def boundary_edge_mask(self):
        return self.edge_elements[:, 1] < 0

    @cached_property
    def boundary_vertex_mask(self):
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.edges[self.boundary_edge_mask].ravel()] = True
        return mask


# -- construction ----------------------------------------------------------

def _rotate_longest_edge_first(vertices, tri):
    """Cyclically rotate a CCW triangle so its longest edge comes first.

    Ties are broken toward the lowest sorted vertex-index pair, which makes
    the initial refinement-edge assignment deterministic.
    """
    best = None
    for r in range(3):
        a, b, c = tri[r % 3], tri[(r + 1) % 3], tri[(r + 2) % 3]
        length = float(np.hypot(*(vertices[b] - vertices[a])))
        key = (-length, min(a, b), max(a, b))
        if best is None or key < best[0]:
            best = (key, (a, b, c))
    return best[1]


_UNIT_SQUARE_VERTICES = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
_UNIT_SQUARE_ELEMENTS = [(0, 1, 2), (0, 2, 3)]

# (-1, 1)^2 minus the closed quadrant [0, 1] x [-1, 0]; the reentrant corner
# sits at the origin and every square diagonal points at it
_L_SHAPE_VERTICES = [(-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 0.0),
                     (1.0, 0.0), (-1.0, 1.0), (0.0, 1.0), (1.0, 1.0)]
_L_SHAPE_ELEMENTS = [(0, 1, 3), (0, 3, 2), (2, 3, 5), (5, 3, 6),
                     (3, 4, 7), (3, 7, 6)]

# the shipped initial meshes by name: (vertices, elements)
DOMAINS = {"unit_square": (_UNIT_SQUARE_VERTICES, _UNIT_SQUARE_ELEMENTS),
           "l_shape": (_L_SHAPE_VERTICES, _L_SHAPE_ELEMENTS)}


def builtin_domain(name):
    """Construct one of the shipped initial meshes.

    Refinement edges are assigned by the longest-edge rule with the lowest
    vertex-index pair breaking ties; on both shipped domains this picks the
    square diagonals, which each pair of neighbours shares.
    """
    if name not in DOMAINS:
        raise ConfigurationError(f"unknown domain {name!r}")
    raw_v, raw_e = DOMAINS[name]
    vertices = np.array(raw_v, dtype=float)
    elements = [_rotate_longest_edge_first(vertices, tri) for tri in raw_e]
    return Mesh(vertices, elements)


# -- refinement --------------------------------------------------------------

def as_element_indices(indices, n_elements, name):
    """``indices`` as an intp array of element indices in [0, n_elements).

    An empty input, of any dtype, gives an empty array.  Booleans, floats
    and indices out of range, negative ones included, raise ``ValueError``
    naming ``name``, so a mask or a wrapped index is never read as a set of
    elements.
    """
    indices = np.asarray(indices)
    if indices.size == 0:
        return np.empty(0, dtype=np.intp)
    if indices.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer element indices, "
                         f"not {indices.dtype}")
    if indices.min() < 0 or indices.max() >= n_elements:
        raise ValueError(f"{name} element index out of range")
    return indices.astype(np.intp, copy=False)


def refine_nvb(mesh, marked):
    """Bisect the marked elements and close the mesh to conformity.

    ``marked`` holds integer element indices; booleans, floats and
    indices out of range raise ``ValueError``, and an empty ``marked``
    returns ``mesh`` itself.

    Closure marks edges of ``mesh.edges``: ``level[e]`` is the pass in
    which edge ``e`` gets its midpoint, 0 while it stays unsplit.  The
    refinement edges of the marked elements get level 1; pass ``k + 1``
    gives level ``k + 1`` to the refinement edge of every element that
    has a split edge but an unsplit refinement edge, and closure ends when
    no such element is left.  Every pass splits at least one new edge, so
    the loop ends.  Only edges of ``mesh`` are ever split: a child's
    refinement edge is one of its parent's edges, and no edge of a
    grandchild is split within one call.

    The output is a pure function of the input.  New vertices are numbered
    ``n_vertices + rank``, split edges ranked by ``(level, edge index)``.
    Each element ``(p0, p1, p2)`` is replaced in place by its children;
    with ``m``, ``m1`` and ``m0`` the midpoints of ``p0-p1``, ``p2-p0`` and
    ``p1-p2``, an element with no split edge stays as it is, and otherwise
    its children are ``(m, p2, m1), (p0, m, m1)`` if ``p2-p0`` is split,
    else ``(p2, p0, m)``, followed by ``(m, p1, m0), (p2, m, m0)`` if
    ``p1-p2`` is split, else ``(p1, p2, m)``.  ``parent`` repeats each
    element's index once per child.
    """
    marked = as_element_indices(marked, mesh.n_elements, "marked")
    if marked.size == 0:
        return mesh

    # local edge 2 is the refinement edge p0-p1, 1 is p2-p0, 0 is p1-p2
    elem_edges = mesh.elem_edges
    level = np.zeros(len(mesh.edges), dtype=np.intp)
    new = elem_edges[marked, 2]
    k = 1
    while new.size:
        level[new] = k
        k += 1
        # a neighbour of an edge split in an earlier pass has its own
        # refinement edge split by now, so only this pass's can need closure
        touched = mesh.edge_elements[new].ravel()
        ref = elem_edges[touched[touched >= 0], 2]
        new = ref[level[ref] == 0]

    split = np.flatnonzero(level)
    split = split[np.argsort(level[split], kind="stable")]
    mid = np.full(len(level), -1, dtype=np.intp)
    mid[split] = mesh.n_vertices + np.arange(split.size)
    ends = mesh.vertices[mesh.edges[split]]
    vertices = np.vstack([mesh.vertices, 0.5 * (ends[:, 0] + ends[:, 1])])

    p0, p1, p2 = mesh.elements.T
    m, m1, m0 = mid[elem_edges].T[::-1]
    bisected, left, right = m >= 0, m1 >= 0, m0 >= 0
    # four child slots per element, kept where the element has that child
    slots = np.stack([
        np.where(left, [m, p2, m1], [p2, p0, m]),
        [p0, m, m1],
        np.where(right, [m, p1, m0], [p1, p2, m]),
        [p2, m, m0]]).transpose(2, 0, 1)
    slots[~bisected, 0] = mesh.elements[~bisected]
    keep = np.column_stack([np.ones_like(bisected), left, bisected, right])
    fine = Mesh._refined(vertices, slots[keep])
    # element index of each kept slot; nonzero(keep)[0] would be a view
    # that keeps the (n, 2) index array of both axes alive
    fine.parent = np.flatnonzero(keep) // keep.shape[1]
    fine.parent.setflags(write=False)
    fine._refined_from = weakref.ref(mesh)
    return fine


def refine_uniform(mesh, rounds=1):
    """Apply mark-everything refinement ``rounds`` times."""
    if (isinstance(rounds, bool) or not isinstance(rounds, (int, np.integer))
            or rounds < 0):
        raise ValueError(f"rounds must be a nonnegative integer, got {rounds!r}")
    for _ in range(rounds):
        mesh = refine_nvb(mesh, np.arange(mesh.n_elements))
    return mesh


def ancestor_map(fine, coarse):
    """For each element of ``fine``, its containing element in ``coarse``.

    ``fine`` must be ``coarse`` or the result of one ``refine_nvb`` call on
    it, checked by object identity; anything else, a grandchild or an
    equal copy of ``coarse`` included, raises ``ValueError``.
    """
    if fine is coarse:
        return np.arange(fine.n_elements, dtype=np.intp)
    if fine._refined_from is None or fine._refined_from() is not coarse:
        raise ValueError("fine mesh is not one refinement of the coarse mesh")
    return fine.parent


# -- validation --------------------------------------------------------------

def validate(mesh):
    """Structural diagnosis: conformity, orientation, orphans, duplicates.

    Hanging nodes are detected through exact coordinate matching: bisection
    computes every new vertex as 0.5 * (a + b), so the midpoint of a stale
    unsplit edge reproduces the hanging vertex's coordinates bit for bit.
    """
    areas = mesh.signed_areas()
    inverted = [int(t) for t in np.flatnonzero(areas <= 0.0)]

    # each repeat of a vertex triple is paired with its first occurrence
    _, first, inverse = np.unique(np.sort(mesh.elements, axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    first = first[inverse.ravel()]
    duplicates = [(int(first[t]), int(t))
                  for t in np.flatnonzero(first != np.arange(mesh.n_elements))]

    nv = mesh.n_vertices
    pairs = np.sort(mesh.elements[:, _LOCAL_EDGES].reshape(-1, 2), axis=1)
    keys, counts = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_counts=True)
    a, b = np.divmod(keys, nv)
    violations = [f"edge ({a[e]}, {b[e]}) is shared by {counts[e]} elements"
                  for e in np.flatnonzero(counts > 2)]

    used = np.zeros(nv, dtype=bool)
    used[mesh.elements.ravel()] = True
    orphans = [int(v) for v in np.flatnonzero(~used)]

    # points viewed as complex x + iy sort lexicographically and compare
    # exactly; among used vertices at one point the highest index is reported
    def points(xy):
        return np.ascontiguousarray(xy).view(complex)[:, 0]

    used_ids = np.flatnonzero(used)
    used_points = points(mesh.vertices[used_ids])
    order = np.argsort(used_points, kind="stable")
    sorted_points = used_points[order]
    mids = points(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
    pos = np.searchsorted(sorted_points, mids, side="right") - 1
    hit = pos >= 0
    hit[hit] = sorted_points[pos[hit]] == mids[hit]
    violations += [f"vertex {used_ids[order[pos[e]]]} hangs on edge "
                   f"({a[e]}, {b[e]})" for e in np.flatnonzero(hit)]

    return MeshDiagnostics(conformity_violations=violations,
                           inverted_elements=inverted,
                           orphan_vertices=orphans,
                           duplicate_elements=duplicates)
