import numpy as np
import pytest

from lsfem import (Mesh, MeshValidityError, ancestor_map, builtin_domain,
                   element_geometry, is_refinement_of, patch, refine_nvb,
                   refine_uniform, validate)


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


def test_constructor_rejects_repeated_vertex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshValidityError, match=r"^element 1 repeats a vertex$"):
        Mesh(verts, np.array([[0, 1, 2], [0, 1, 1], [2, 2, 0]]))


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
    for child, parent in enumerate(fine.parent):
        hc = element_geometry(fine, child).h
        hp = element_geometry(mesh, parent).h
        assert abs(hc / hp - 2.0 ** -0.5) < 5e-16


def test_refine_empty_marked_is_identity():
    mesh = builtin_domain("l_shape")
    assert refine_nvb(mesh, []) is mesh


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
    min_angles = []
    for _ in range(10):
        mesh = refine_uniform(mesh)
        counts.append(mesh.n_elements)
        min_angles.append(min(element_geometry(mesh, t).min_angle
                              for t in range(mesh.n_elements)))
        assert validate(mesh).ok
    # criss-cross squares: every round bisects each element exactly once
    assert counts == [2 * 2 ** k for k in range(11)]
    # shape regularity: minimum angle never drops below the generation-2 value
    assert all(a >= min_angles[1] - 1e-12 for a in min_angles[1:])


def test_generation_counter_and_parents():
    mesh = builtin_domain("unit_square")
    fine = refine_nvb(mesh, [0])
    assert mesh.generation == 0
    assert fine.generation == 1
    assert fine.parent_mesh is mesh
    assert fine.parent.shape == (fine.n_elements,)
    assert set(fine.parent.tolist()) == {0, 1}


def test_ancestor_map_composes():
    rng = np.random.default_rng(11)
    coarse = builtin_domain("l_shape")
    mid = refine_nvb(coarse, rng.choice(coarse.n_elements, 3, replace=False))
    fine = refine_nvb(mid, rng.choice(mid.n_elements, 4, replace=False))
    amap = ancestor_map(fine, coarse)
    assert amap.shape == (fine.n_elements,)
    # each fine element's centroid must lie inside its ancestor
    for t in range(fine.n_elements):
        centroid = fine.vertices[fine.elements[t]].mean(axis=0)
        anc = coarse.vertices[coarse.elements[amap[t]]]
        m = np.column_stack([anc[1] - anc[0], anc[2] - anc[0]])
        lam = np.linalg.solve(m, centroid - anc[0])
        assert lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12
    assert is_refinement_of(fine, coarse)
    assert not is_refinement_of(coarse, fine)


def test_ancestor_map_rejects_unrelated():
    a = builtin_domain("unit_square")
    b = builtin_domain("l_shape")
    with pytest.raises(ValueError):
        ancestor_map(a, b)


def test_patch_of_once_refined_square():
    """All four children share the center vertex, so every patch is global."""
    mesh = refine_nvb(builtin_domain("unit_square"), [0, 1])
    assert mesh.n_elements == 4
    for t in range(4):
        assert sorted(patch(mesh, t).tolist()) == [0, 1, 2, 3]
    # on a graded mesh: the incidence lists ascend and match a direct scan
    mesh = refine_nvb(refine_uniform(builtin_domain("l_shape"), 2), [0, 5, 9])
    for v in range(mesh.n_vertices):
        expected = np.flatnonzero((mesh.elements == v).any(axis=1))
        np.testing.assert_array_equal(mesh.vertex_elements(v), expected)
    t = 7
    touching = np.isin(mesh.elements, mesh.elements[t]).any(axis=1)
    np.testing.assert_array_equal(patch(mesh, t), np.flatnonzero(touching))


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


def test_validate_max_shape_ratio():
    # diam^2 / area: 2 / 0.5 for the unit right triangle, 17 / 2 for the other
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [4.0, 1.0]])
    assert np.isclose(validate(Mesh(verts[:3], [[0, 1, 2]])).max_shape_ratio,
                      4.0, rtol=1e-15)
    diag = validate(Mesh(verts, [[0, 1, 2], [0, 3, 2]]))
    assert diag.ok and np.isclose(diag.max_shape_ratio, 8.5, rtol=1e-15)


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
    centroids = mesh.element_coords().mean(axis=1)
    midpoints = mesh.vertices[mesh.edges].mean(axis=1)
    away = midpoints - centroids[mesh.edge_elements[:, 0]]
    assert np.all((normals * away).sum(axis=1) > 0)
    # a short step along a boundary normal leaves the L-shape
    bnd = mesh.boundary_edge_mask
    x, y = (midpoints[bnd] + 1e-3 * normals[bnd]).T
    assert np.all((np.abs(x) > 1) | (np.abs(y) > 1) | ((x > 0) & (y < 0)))


def test_element_geometry_values():
    mesh = builtin_domain("unit_square")
    geo = element_geometry(mesh, 0)
    assert geo.area == 0.5
    assert geo.h == np.sqrt(0.5)
    assert np.isclose(geo.diam, np.sqrt(2.0))
    assert np.isclose(np.degrees(geo.min_angle), 45.0)


def test_mesh_immutable():
    mesh = builtin_domain("unit_square")
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 3.0
    with pytest.raises(ValueError):
        mesh.elements[0, 0] = 3
