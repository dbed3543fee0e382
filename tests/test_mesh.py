import numpy as np
import pytest

from lsfem import (Mesh, MeshValidityError, ancestor_map, build_dofmap,
                   builtin_domain, prolongation_matrix, refine_nvb,
                   refine_uniform, validate)
from lsfem.verify import _min_angle, _patch_sums, check_angle_lock


def test_unit_square_layout():
    mesh = builtin_domain("unit_square")
    assert mesh.n_vertices == 4
    assert mesh.n_elements == 2
    assert mesh.edges.shape == (5, 2)
    # both elements use the diagonal as refinement edge (first local edge
    # pair v0-v1), which is the longest edge of each
    for tri in mesh.elements:
        c = mesh.vertices[tri]
        lengths = [np.linalg.norm(c[1] - c[0]), np.linalg.norm(c[2] - c[1]),
                   np.linalg.norm(c[0] - c[2])]
        assert lengths[0] == max(lengths)
    assert validate(mesh).ok


def test_l_shape_layout():
    mesh = builtin_domain("l_shape")
    assert mesh.n_vertices == 8
    assert mesh.n_elements == 6
    assert mesh.edges.shape == (13, 2)
    assert validate(mesh).ok
    assert np.isclose(mesh.signed_areas().sum(), 3.0)
    # the reentrant corner vertex (0, 0) must be part of the mesh
    assert any(np.allclose(v, (0.0, 0.0)) for v in mesh.vertices)


def test_unknown_domain():
    from lsfem import ConfigurationError
    with pytest.raises(ConfigurationError):
        builtin_domain("disc")


def test_constructor_rejects_clockwise():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshValidityError):
        Mesh(verts, np.array([[0, 2, 1]]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("vertex, axis", [(0, 1), (3, 0)])
def test_constructor_rejects_non_finite_vertex(value, vertex, axis):
    """A NaN area passes ``area <= 0``, so the coordinates are checked
    themselves, those of a vertex no element uses (3) too."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    verts[vertex, axis] = value
    with pytest.raises(MeshValidityError,
                       match=rf"^vertex {vertex} has a non-finite coordinate$"):
        Mesh(verts, np.array([[0, 1, 2]]))


def test_constructor_rejects_repeated_vertex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshValidityError, match=r"^element 1 repeats a vertex$"):
        Mesh(verts, np.array([[0, 1, 2], [0, 1, 1], [2, 2, 0]]))


@pytest.mark.parametrize("elements", [
    [[0.7, 1, 2]], [[0, 1, 2.9]], [["0", "1", "2"]],
    np.array([[0.0, 1.0, 2.0]]), np.array([[True, True, False]])])
def test_constructor_rejects_non_integer_elements(elements):
    """Element entries are vertex indices: a float, string or bool array
    raises instead of being truncated to the integers below it."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshValidityError, match="integer vertex indices"):
        Mesh(verts, elements)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
def test_constructor_accepts_any_integer_dtype(dtype):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(verts, np.array([[0, 1, 2]], dtype=dtype))
    assert mesh.elements.dtype == np.intp
    np.testing.assert_array_equal(mesh.elements, [[0, 1, 2]])


def test_refined_mesh_matches_public_constructor():
    """``refine_nvb`` builds its result without the constructor's copies and
    repeat check; the mesh is the one the public constructor builds from
    the same arrays, read-only and with intp elements."""
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=2)
    fine = refine_nvb(mesh, [0, 5, 17])
    again = Mesh(fine.vertices, fine.elements)
    assert fine.elements.dtype == np.intp and fine.vertices.dtype == float
    assert not fine.elements.flags.writeable
    assert not fine.vertices.flags.writeable
    np.testing.assert_array_equal(fine.elements, again.elements)
    np.testing.assert_array_equal(fine.vertices, again.vertices)
    assert fine.signed_areas().tobytes() == again.signed_areas().tobytes()
    assert validate(fine).ok


def test_single_bisection_oracle():
    """Marking one element of the square bisects both (shared diagonal)."""
    mesh = builtin_domain("unit_square")
    fine = refine_nvb(mesh, [0])
    assert fine.n_elements == 4
    assert fine.n_vertices == 5
    assert any(np.allclose(v, (0.5, 0.5)) for v in fine.vertices)
    assert validate(fine).ok
    # exact halving: child areas are bitwise half of the parents
    parent_areas = mesh.signed_areas()
    child_areas = fine.signed_areas()
    for child, parent in enumerate(fine.parent):
        assert child_areas[child] * 2.0 == parent_areas[parent]


def test_h_contraction_factor():
    mesh = builtin_domain("unit_square")
    fine = refine_nvb(mesh, [0, 1])
    hc = np.sqrt(fine.signed_areas())
    hp = np.sqrt(mesh.signed_areas())[fine.parent]
    assert np.abs(hc / hp - 2.0 ** -0.5).max() < 5e-16


def test_refine_empty_marked_is_identity():
    mesh = builtin_domain("l_shape")
    assert refine_nvb(mesh, []) is mesh
    assert refine_nvb(mesh, np.array([], dtype=np.intp)) is mesh


@pytest.mark.parametrize("marked, message", [
    ([False] * 5 + [True], "integer element indices"),
    (np.ones(6, dtype=bool), "integer element indices"),
    ([4.9], "integer element indices"),
    ([5.0], "integer element indices"),
    ([6], "out of range"),
    ([-1], "out of range")])
def test_refine_rejects_bad_marked(marked, message):
    with pytest.raises(ValueError, match=message):
        refine_nvb(builtin_domain("l_shape"), marked)


@pytest.mark.parametrize("rounds", [-3, 1.5, True, "2"])
def test_refine_uniform_rejects_bad_rounds(rounds):
    mesh = builtin_domain("l_shape")
    with pytest.raises(ValueError, match="nonnegative integer"):
        refine_uniform(mesh, rounds)
    assert refine_uniform(mesh, 0) is mesh


def test_refinement_is_deterministic():
    mesh = builtin_domain("l_shape")
    a = refine_nvb(mesh, [0, 3])
    b = refine_nvb(mesh, [0, 3])
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(a.elements, b.elements)
    np.testing.assert_array_equal(a.parent, b.parent)


def test_marked_elements_disappear():
    rng = np.random.default_rng(7)
    mesh = builtin_domain("l_shape")
    for _ in range(5):
        k = int(rng.integers(1, mesh.n_elements + 1))
        marked = np.sort(rng.choice(mesh.n_elements, size=k, replace=False))
        old = {tuple(sorted(mesh.elements[t])) for t in marked}
        mesh = refine_nvb(mesh, marked)
        new = {tuple(sorted(tri)) for tri in mesh.elements.tolist()}
        assert not (old & new)
        assert validate(mesh).ok


def test_uniform_refinement_counts_and_angles():
    mesh = builtin_domain("unit_square")
    counts = [mesh.n_elements]
    meshes = []
    for _ in range(10):
        mesh = refine_uniform(mesh)
        counts.append(mesh.n_elements)
        meshes.append(mesh)
        assert validate(mesh).ok
    # criss-cross squares: every round bisects each element exactly once
    assert counts == [2 * 2 ** k for k in range(11)]
    # shape regularity: minimum angle never drops below the generation-2 value
    (result,) = check_angle_lock(meshes)
    assert result.passed, result.render()


def _refine_nvb_reference(mesh, marked):
    """Reference bisection: closure over Python lists and a midpoint dict.

    Returns the ``(vertices, elements, parent)`` arrays of the refined mesh.
    """
    marked = np.unique(np.asarray(list(marked), dtype=np.intp))
    vx = [float(x) for x in mesh.vertices[:, 0]]
    vy = [float(y) for y in mesh.vertices[:, 1]]
    elements = [tuple(tri) for tri in mesh.elements.tolist()]
    ancestor = list(range(mesh.n_elements))
    midpoint = {}

    def pair(a, b):
        return (a, b) if a < b else (b, a)

    to_bisect = sorted(set(int(t) for t in marked))
    while to_bisect:
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
    return (np.column_stack([np.array(vx), np.array(vy)]),
            np.array(elements, dtype=np.intp), np.array(ancestor, dtype=np.intp))


def _refine_like_reference(mesh, marked, where):
    fine = refine_nvb(mesh, marked)
    vertices, elements, parent = _refine_nvb_reference(mesh, marked)
    np.testing.assert_array_equal(fine.vertices, vertices, err_msg=where)
    np.testing.assert_array_equal(fine.elements, elements, err_msg=where)
    np.testing.assert_array_equal(fine.parent, parent, err_msg=where)
    return fine


@pytest.mark.parametrize("domain", ["unit_square", "l_shape"])
def test_refine_matches_reference_on_random_sequences(domain):
    rng = np.random.default_rng(2020)
    for seq in range(6):
        mesh = builtin_domain(domain)
        for step in range(12):
            k = int(rng.integers(1, mesh.n_elements // 2 + 2))
            marked = rng.choice(mesh.n_elements, size=k, replace=False)
            mesh = _refine_like_reference(mesh, marked,
                                          f"{domain} sequence {seq} step {step}")


def test_refine_matches_reference_on_corner_grading():
    """One marked element at the reentrant corner: closure takes up to six
    passes once the mesh is graded."""
    mesh = builtin_domain("l_shape")
    corner = 3                                  # the vertex at the origin
    for step in range(30):
        marked = np.flatnonzero((mesh.elements == corner).any(axis=1))[:1]
        mesh = _refine_like_reference(mesh, marked, f"corner step {step}")


@pytest.mark.parametrize("domain", ["unit_square", "l_shape"])
def test_refine_matches_reference_on_uniform_rounds(domain):
    mesh = builtin_domain(domain)
    for rnd in range(7):
        mesh = _refine_like_reference(mesh, np.arange(mesh.n_elements),
                                      f"{domain} round {rnd}")


def test_parent_links():
    mesh = builtin_domain("unit_square")
    fine = refine_nvb(mesh, [0])
    assert mesh.parent is None
    with pytest.raises(ValueError):
        ancestor_map(mesh, fine)
    assert ancestor_map(fine, mesh) is fine.parent
    assert fine.parent.shape == (fine.n_elements,)
    assert set(fine.parent.tolist()) == {0, 1}
    with pytest.raises(ValueError):
        ancestor_map(refine_nvb(fine, [0]), mesh)


def test_parent_links_are_read_only():
    """``ancestor_map`` hands out ``fine.parent`` itself, so a write through
    its result would change the links every later prolongation reads."""
    mesh = builtin_domain("unit_square")
    fine = refine_nvb(mesh, [0])
    with pytest.raises(ValueError):
        ancestor_map(fine, mesh)[0] = 1
    with pytest.raises(ValueError):
        fine.parent[:] = 0
    assert set(fine.parent.tolist()) == {0, 1}


def test_ancestor_map_composes():
    rng = np.random.default_rng(11)
    coarse = builtin_domain("l_shape")
    mid = refine_nvb(coarse, rng.choice(coarse.n_elements, 3, replace=False))
    fine = refine_nvb(mid, rng.choice(mid.n_elements, 4, replace=False))
    # one level per call: two refinements compose the parent arrays
    with pytest.raises(ValueError):
        ancestor_map(fine, coarse)
    amap = mid.parent[fine.parent]
    assert amap.shape == (fine.n_elements,)
    # each fine element's centroid must lie inside its ancestor
    for t in range(fine.n_elements):
        centroid = fine.vertices[fine.elements[t]].mean(axis=0)
        anc = coarse.vertices[coarse.elements[amap[t]]]
        m = np.column_stack([anc[1] - anc[0], anc[2] - anc[0]])
        lam = np.linalg.solve(m, centroid - anc[0])
        assert lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12
    with pytest.raises(ValueError):
        ancestor_map(coarse, fine)


@pytest.mark.parametrize("kind", ["unrelated", "sibling", "copy", "reversed",
                                  "grandchild"])
def test_ancestor_map_rejects_unrelated(kind):
    """Only the mesh itself or one refine_nvb call on it maps to a mesh."""
    coarse = builtin_domain("unit_square")
    child = refine_nvb(coarse, [0])
    fine, coarse = {
        "unrelated": (coarse, builtin_domain("l_shape")),
        "sibling": (refine_nvb(coarse, [1]), child),
        "copy": (child, Mesh(coarse.vertices, coarse.elements)),
        "reversed": (coarse, child),
        "grandchild": (refine_nvb(child, [0]), coarse),
    }[kind]
    with pytest.raises(ValueError):
        ancestor_map(fine, coarse)
    with pytest.raises(ValueError):
        prolongation_matrix(build_dofmap(coarse), build_dofmap(fine))


def test_patch_of_once_refined_square():
    """All four children share the center vertex, so every patch is global."""
    mesh = refine_nvb(builtin_domain("unit_square"), [0, 1])
    assert mesh.n_elements == 4
    values = np.array([1.0, 2.0, 4.0, 8.0])
    np.testing.assert_array_equal(_patch_sums(mesh, values), np.full(4, 15.0))
    # on a graded mesh each sum matches a direct scan; integer values keep
    # every sum exact, whatever the summation order
    mesh = refine_nvb(refine_uniform(builtin_domain("l_shape"), 2), [0, 5, 9])
    values = np.random.default_rng(3).integers(0, 1000, mesh.n_elements)
    values = values.astype(float)
    sums = _patch_sums(mesh, values)
    for t in range(mesh.n_elements):
        touching = np.isin(mesh.elements, mesh.elements[t]).any(axis=1)
        assert sums[t] == values[touching].sum(), t


def test_validate_flags_duplicates():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(verts, np.array([[0, 1, 2], [0, 1, 2]]))
    diag = validate(mesh)
    assert not diag.ok
    assert diag.duplicate_elements == [(0, 1)]


def test_validate_flags_hanging_vertex():
    # the right triangle's diagonal carries the left pair's shared vertex
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5], [0.5, 0.5]])
    diag = validate(Mesh(verts, np.array([[0, 1, 2], [0, 4, 3], [4, 2, 3]])))
    assert diag.conformity_violations == ["vertex 4 hangs on edge (0, 2)"]
    # of two used vertices at the midpoint, the higher index is reported
    diag = validate(Mesh(verts, np.array([[0, 1, 2], [0, 4, 3], [5, 2, 3]])))
    assert diag.conformity_violations == ["vertex 5 hangs on edge (0, 2)"]


def test_validate_flags_edge_shared_by_three_elements():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                      [0.5, 2.0]])
    diag = validate(Mesh(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])))
    assert not diag.ok
    assert diag.conformity_violations == ["edge (0, 1) is shared by 3 elements"]


def test_validate_flags_orphans():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    mesh = Mesh(verts, np.array([[0, 1, 2]]))
    diag = validate(mesh)
    assert not diag.ok
    assert diag.orphan_vertices == [3]


def test_edge_tables_consistent():
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=2)
    # each element's local edges must resolve to its own global edges,
    # local edge i lying opposite local vertex i
    for t in range(mesh.n_elements):
        tri = mesh.elements[t]
        for i in range(3):
            e = mesh.elem_edges[t, i]
            a, b = sorted((tri[(i + 1) % 3], tri[(i + 2) % 3]))
            assert tuple(mesh.edges[e]) == (a, b)
    # interior edges list exactly two incident elements, boundary edges one
    interior = mesh.edge_elements[:, 1] >= 0
    assert np.all(interior == ~mesh.boundary_edge_mask)
    # lowest-index incident element carries the positive orientation
    for e in np.flatnonzero(interior):
        t0, t1 = mesh.edge_elements[e]
        assert t0 < t1
        i0 = int(np.flatnonzero(mesh.elem_edges[t0] == e)[0])
        assert mesh.edge_signs[t0, i0] == 1
        i1 = int(np.flatnonzero(mesh.elem_edges[t1] == e)[0])
        assert mesh.edge_signs[t1, i1] == -1
    # the global normal: unit length, orthogonal to the edge, pointing out
    # of edge_elements[e, 0], hence outward on the boundary
    normals = mesh.edge_normals
    tangents = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose((normals * tangents).sum(axis=1), 0.0,
                               atol=1e-15)
    centroids = mesh.element_geometry()[0].mean(axis=1)
    midpoints = mesh.vertices[mesh.edges].mean(axis=1)
    away = midpoints - centroids[mesh.edge_elements[:, 0]]
    assert np.all((normals * away).sum(axis=1) > 0)
    # a short step along a boundary normal leaves the L-shape
    bnd = mesh.boundary_edge_mask
    x, y = (midpoints[bnd] + 1e-3 * normals[bnd]).T
    assert np.all((np.abs(x) > 1) | (np.abs(y) > 1) | ((x > 0) & (y < 0)))


def test_geometry_table_values():
    mesh = builtin_domain("unit_square")
    geometry = mesh.geometry
    np.testing.assert_array_equal(geometry["area"], [0.5, 0.5])
    assert mesh.signed_areas() is geometry["area"]
    np.testing.assert_allclose(geometry["edge_len"].max(axis=1), np.sqrt(2.0))
    assert np.isclose(np.degrees(_min_angle(mesh)), 45.0)
    # the hats sum to one, so their gradients sum to zero
    np.testing.assert_allclose(mesh.element_geometry()[1].sum(axis=1), 0.0,
                               atol=1e-15)
    with pytest.raises(ValueError):
        geometry["area"][0] = 1.0


def test_element_geometry_is_formed_per_block():
    """The mesh caches only areas and edge lengths; corners and hat
    gradients are formed on request, and each element's values do not
    depend on the slice, index array or single index it is formed in."""
    mesh = refine_nvb(refine_uniform(builtin_domain("l_shape"), rounds=3),
                      [0, 5, 17])
    assert set(mesh.geometry) == {"area", "edge_len"}
    coords, grads = mesh.element_geometry()
    np.testing.assert_array_equal(coords, mesh.vertices[mesh.elements])
    # hat i is one at vertex i and zero at the other two
    for i in range(3):
        for j in range(3):
            step = coords[:, j] - coords[:, (i + 1) % 3]
            np.testing.assert_allclose(
                np.einsum("td,td->t", grads[:, i], step), float(i == j),
                atol=1e-13)
    for block in (slice(5, 40), np.array([7, 3, 3, 50]), 9):
        part = mesh.element_geometry(block)
        assert np.array_equal(part[0], coords[block])
        assert np.array_equal(part[1], grads[block])
    dm = build_dofmap(mesh)
    dofs = dm.element_dofs()
    assert dofs.shape == (mesh.n_elements, 6)
    assert np.array_equal(dm.element_dofs(np.array([7, 3])), dofs[[7, 3]])
    assert np.array_equal(dm.element_dofs(9), dofs[9])


def test_mesh_immutable():
    mesh = builtin_domain("unit_square")
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 3.0
    with pytest.raises(ValueError):
        mesh.elements[0, 0] = 3


def _eager_edge_normals(mesh):
    """The edge normals as the edge tables once built them for every mesh:
    all 3 nt local normals, then those of each edge's lowest-index
    element."""
    coords = mesh.element_geometry()[0]
    tangent = (np.take(coords, [2, 0, 1], axis=1)
               - np.take(coords, [1, 2, 0], axis=1))
    normal = tangent[..., ::-1] * [1.0, -1.0]
    normal /= mesh.geometry["edge_len"][..., None]
    lowest = np.flatnonzero(mesh.edge_signs.ravel() == 1)
    order = np.argsort(mesh.elem_edges.ravel()[lowest])
    return normal.reshape(-1, 2)[lowest[order]]


def test_lazy_edge_normals_match_eager_formula():
    """The normals built on first use are the eager ones bit for bit, and
    an exact level, which never reads them, never holds them."""
    rng = np.random.default_rng(17)
    for domain in ("l_shape", "unit_square"):
        mesh = refine_uniform(builtin_domain(domain), rounds=2)
        for _ in range(4):
            mesh = refine_nvb(mesh, rng.choice(mesh.n_elements, 7,
                                               replace=False))
            mesh.edges
            assert "edge_normals" not in vars(mesh)
            assert (mesh.edge_normals.tobytes()
                    == _eager_edge_normals(mesh).tobytes())
            assert mesh.edge_normals is mesh.edge_normals


def test_rt_scale_with_int8_signs():
    """``edge_signs`` is int8; ``rt_scale`` has the bits of the intp signs
    it was computed from before."""
    mesh = refine_nvb(refine_uniform(builtin_domain("l_shape"), rounds=3),
                      [1, 4, 30])
    assert mesh.edge_signs.dtype == np.int8
    signs = mesh.edge_signs.astype(np.intp)
    expected = signs * mesh.geometry["edge_len"] / (
        2.0 * mesh.geometry["area"])[:, None]
    assert mesh.rt_scale.dtype == float
    assert mesh.rt_scale.tobytes() == expected.tobytes()
