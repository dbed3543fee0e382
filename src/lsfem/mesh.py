"""Conforming triangle meshes with newest-vertex-bisection refinement.

An element is stored as three vertex indices ``(v0, v1, v2)`` in
counterclockwise order; the edge ``v0 -- v1`` is its refinement edge and
``v2`` plays the role of the newest vertex.  Bisection inserts the midpoint
``m`` of the refinement edge and produces the children ``(v2, v0, m)`` and
``(v1, v2, m)``, so each child's refinement edge is one of the parent's two
remaining edges and ``m`` sits opposite both of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, MeshValidityError

# local edge i is the edge opposite local vertex i
_LOCAL_EDGES = np.array([[1, 2], [2, 0], [0, 1]], dtype=np.intp)


@dataclass(frozen=True)
class ElementGeometry:
    """Shape data of a single triangle."""

    area: float
    h: float            # area ** 0.5
    diam: float         # longest edge length
    min_angle: float    # radians


@dataclass
class MeshDiagnostics:
    """Report produced by :func:`validate`."""

    conformity_violations: list
    inverted_elements: list
    orphan_vertices: list
    duplicate_elements: list
    max_shape_ratio: float

    @property
    def ok(self):
        return not (self.conformity_violations or self.inverted_elements
                    or self.orphan_vertices or self.duplicate_elements)


class Mesh:
    """Immutable conforming triangulation.

    Parameters
    ----------
    vertices : (nv, 2) float array
    elements : (nt, 3) int array, counterclockwise, refinement edge first
    parent_mesh : Mesh or None
        The mesh this one was refined from, if any.
    parent : (nt,) int array or None
        For each element, the index of the containing element of
        ``parent_mesh``.  Together with ``parent_mesh`` these links form a
        forest rooted in the initial mesh.
    """

    def __init__(self, vertices, elements, parent_mesh=None, parent=None,
                 generation=0):
        vertices = np.array(vertices, dtype=float)
        elements = np.array(elements, dtype=np.intp)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshValidityError("vertices must be an (nv, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshValidityError("elements must be an (nt, 3) array")
        if elements.size and (elements.min() < 0
                              or elements.max() >= len(vertices)):
            raise MeshValidityError("element vertex index out of range")
        repeats = (np.diff(np.sort(elements, axis=1), axis=1) == 0).any(axis=1)
        if repeats.any():
            raise MeshValidityError(
                f"element {int(np.argmax(repeats))} repeats a vertex")
        self.vertices = vertices
        self.elements = elements
        self.vertices.setflags(write=False)
        self.elements.setflags(write=False)
        self.parent_mesh = parent_mesh
        self.parent = None if parent is None else np.asarray(parent, dtype=np.intp)
        self.generation = generation
        self._cache = {}
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

    def element_coords(self):
        """Vertex coordinates per element, shape (nt, 3, 2)."""
        return self.vertices[self.elements]

    def signed_areas(self):
        c = self.element_coords()
        d1 = c[:, 1] - c[:, 0]
        d2 = c[:, 2] - c[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    # -- cached topology ---------------------------------------------------

    def _edge_tables(self):
        """Edge numbering, incidence and normals, computed once per mesh.

        Returns a dict with:
          edges         (ne, 2) sorted vertex pairs, lexicographically ordered
          elem_edges    (nt, 3) global edge index of each local edge
          edge_elements (ne, 2) adjacent element indices, ascending, -1 pad
          edge_signs    (nt, 3) +1 where the element is the lowest-index
                        element adjacent to the edge, else -1
          edge_normals  (ne, 2) the global edge normal: the unit normal
                        pointing out of edge_elements[e, 0], hence outward
                        on the boundary
        """
        if "edges" in self._cache:
            return self._cache
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
        signs = np.full(3 * nt, -1, dtype=np.intp)
        signs[lowest] = 1
        # right-hand perp of the CCW tangent of local edge i points out
        coords = self.element_coords()
        tangent = coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]
        normal = tangent[..., ::-1] * [1.0, -1.0]
        normal /= np.hypot(tangent[..., 0], tangent[..., 1])[..., None]
        self._cache.update(edges=edges, elem_edges=elem_edges,
                           edge_elements=edge_elements,
                           edge_signs=signs.reshape(nt, 3),
                           edge_normals=normal.reshape(-1, 2)[lowest])
        return self._cache

    @property
    def edges(self):
        return self._edge_tables()["edges"]

    @property
    def elem_edges(self):
        return self._edge_tables()["elem_edges"]

    @property
    def edge_elements(self):
        return self._edge_tables()["edge_elements"]

    @property
    def edge_signs(self):
        return self._edge_tables()["edge_signs"]

    @property
    def edge_normals(self):
        return self._edge_tables()["edge_normals"]

    @property
    def boundary_edge_mask(self):
        return self.edge_elements[:, 1] < 0

    @property
    def boundary_vertex_mask(self):
        if "boundary_vertices" not in self._cache:
            mask = np.zeros(self.n_vertices, dtype=bool)
            bedges = self.edges[self.boundary_edge_mask]
            mask[bedges.ravel()] = True
            self._cache["boundary_vertices"] = mask
        return self._cache["boundary_vertices"]

    def vertex_elements(self, v):
        """Indices of elements touching vertex v, ascending."""
        if "vertex_elements" not in self._cache:
            flat = self.elements.ravel()
            order = np.argsort(flat, kind="stable")
            start = np.searchsorted(flat[order], np.arange(self.n_vertices + 1))
            self._cache["vertex_elements"] = (order // 3, start)
        owners, start = self._cache["vertex_elements"]
        return owners[start[v]:start[v + 1]]


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


def builtin_domain(name):
    """Construct one of the shipped initial meshes.

    Refinement edges are assigned by the longest-edge rule with the lowest
    vertex-index pair breaking ties; on both shipped domains this picks the
    square diagonals, which each pair of neighbours shares.
    """
    if name == "unit_square":
        raw_v, raw_e = _UNIT_SQUARE_VERTICES, _UNIT_SQUARE_ELEMENTS
    elif name == "l_shape":
        raw_v, raw_e = _L_SHAPE_VERTICES, _L_SHAPE_ELEMENTS
    else:
        raise ConfigurationError(f"unknown domain {name!r}")
    vertices = np.array(raw_v, dtype=float)
    elements = [_rotate_longest_edge_first(vertices, tri) for tri in raw_e]
    return Mesh(vertices, elements)


# -- per-element geometry ----------------------------------------------------

def element_geometry(mesh, elem):
    """Area, mesh size h = area**0.5, diameter, and minimum angle."""
    if not 0 <= elem < mesh.n_elements:
        raise ValueError(f"element index {elem} out of range")
    c = mesh.vertices[mesh.elements[elem]]
    d1 = c[1] - c[0]
    d2 = c[2] - c[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    if area <= 0.0:
        raise MeshValidityError(f"element {elem} is degenerate")
    sides = c[[1, 2, 0]] - c
    lengths = np.hypot(sides[:, 0], sides[:, 1])
    angles = []
    for i in range(3):
        u = c[(i + 1) % 3] - c[i]
        w = c[(i + 2) % 3] - c[i]
        cosang = np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return ElementGeometry(area=float(area), h=float(np.sqrt(area)),
                           diam=float(lengths.max()),
                           min_angle=float(min(angles)))


def patch(mesh, elem):
    """Indices of all elements sharing at least one vertex with ``elem``."""
    if not 0 <= elem < mesh.n_elements:
        raise ValueError(f"element index {elem} out of range")
    parts = [mesh.vertex_elements(int(v)) for v in mesh.elements[elem]]
    return np.unique(np.concatenate(parts))


# -- refinement --------------------------------------------------------------

def refine_nvb(mesh, marked):
    """Bisect the marked elements and close the mesh to conformity.

    Closure iterates "bisect every element one of whose edges has been
    split" to a fixed point; each pass bisects an element once, through its
    own refinement edge, so elements hit by closure may end up bisected more
    than once per call.  New vertices are appended per pass in the sorted
    order of their parent-edge vertex pairs, which makes the result a pure
    function of the input.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.intp))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.n_elements:
        raise ValueError("marked element index out of range")

    vx = [float(x) for x in mesh.vertices[:, 0]]
    vy = [float(y) for y in mesh.vertices[:, 1]]
    elements = [tuple(tri) for tri in mesh.elements.tolist()]
    ancestor = list(range(mesh.n_elements))
    midpoint = {}

    def pair(a, b):
        return (a, b) if a < b else (b, a)

    to_bisect = sorted(set(int(t) for t in marked))
    guard = 0
    while to_bisect:
        guard += 1
        if guard > 10000:
            raise MeshValidityError("refinement closure did not terminate")
        needed = sorted({pair(elements[t][0], elements[t][1]) for t in to_bisect})
        for a, b in needed:
            if (a, b) not in midpoint:
                midpoint[(a, b)] = len(vx)
                vx.append(0.5 * (vx[a] + vx[b]))
                vy.append(0.5 * (vy[a] + vy[b]))
        bis = set(to_bisect)
        next_elements = []
        next_ancestor = []
        for t, (p0, p1, p2) in enumerate(elements):
            if t in bis:
                m = midpoint[pair(p0, p1)]
                next_elements.append((p2, p0, m))
                next_elements.append((p1, p2, m))
                next_ancestor.extend((ancestor[t], ancestor[t]))
            else:
                next_elements.append((p0, p1, p2))
                next_ancestor.append(ancestor[t])
        elements = next_elements
        ancestor = next_ancestor
        to_bisect = [t for t, (p0, p1, p2) in enumerate(elements)
                     if pair(p0, p1) in midpoint or pair(p1, p2) in midpoint
                     or pair(p2, p0) in midpoint]

    vertices = np.column_stack([np.array(vx), np.array(vy)])
    return Mesh(vertices, elements, parent_mesh=mesh, parent=ancestor,
                generation=mesh.generation + 1)


def refine_uniform(mesh, rounds=1):
    """Apply mark-everything refinement ``rounds`` times."""
    for _ in range(rounds):
        mesh = refine_nvb(mesh, np.arange(mesh.n_elements))
    return mesh


def ancestor_map(fine, coarse):
    """For each element of ``fine``, its containing element in ``coarse``.

    ``fine`` must have been produced from ``coarse`` by refine_nvb calls;
    the parent links are walked and composed to verify that.
    """
    if fine is coarse:
        return np.arange(fine.n_elements, dtype=np.intp)
    if fine.parent_mesh is None:
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    idx = fine.parent
    m = fine.parent_mesh
    while m is not coarse:
        if m.parent_mesh is None:
            raise ValueError("fine mesh is not a refinement of the coarse mesh")
        idx = m.parent[idx]
        m = m.parent_mesh
    return idx


def is_refinement_of(fine, coarse):
    try:
        ancestor_map(fine, coarse)
    except ValueError:
        return False
    return True


# -- validation --------------------------------------------------------------

def validate(mesh):
    """Structural diagnosis: conformity, orientation, orphans, shape.

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

    coords = mesh.element_coords()
    sides = coords[:, [1, 2, 0]] - coords
    diam = np.hypot(sides[..., 0], sides[..., 1]).max(axis=1)
    positive = areas > 0.0
    ratios = diam[positive] * diam[positive] / areas[positive]

    return MeshDiagnostics(conformity_violations=violations,
                           inverted_elements=inverted,
                           orphan_vertices=orphans,
                           duplicate_elements=duplicates,
                           max_shape_ratio=float(ratios.max(initial=0.0)))
