import numpy as np
import pytest

from lsfem import (builtin_domain, build_dofmap, eval_local_basis,
                   prolongation_matrix, prolongate, refine_nvb,
                   refine_uniform)
from lsfem.spaces import barycentric
from lsfem.verify import edge_moment_interpolation, nodal_interpolation


def test_dof_counts():
    # 4 boundary vertices, 5 edges
    assert build_dofmap(builtin_domain("unit_square")).n_total == 5
    # once refined: 5 vertices (1 interior), 8 edges
    once = refine_nvb(builtin_domain("unit_square"), [0, 1])
    dm = build_dofmap(once)
    assert (dm.n_h1, dm.n_rt, dm.n_total) == (1, 8, 9)
    # the L-mesh has no interior vertices and 13 edges
    assert build_dofmap(builtin_domain("l_shape")).n_total == 13


def test_boundary_vertices_carry_no_dof():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=3)
    dm = build_dofmap(mesh)
    assert np.all(dm.vertex_dof[mesh.boundary_vertex_mask] == -1)
    interior = dm.vertex_dof[~mesh.boundary_vertex_mask]
    np.testing.assert_array_equal(np.sort(interior), np.arange(dm.n_h1))


def test_hat_basis_partition_and_affine_reproduction():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    dm = build_dofmap(mesh)
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = int(rng.integers(mesh.n_elements))
        lam = rng.dirichlet(np.ones(3))
        basis = eval_local_basis(dm, t, lam)
        assert np.isclose(basis.hat_values.sum(), 1.0)
        np.testing.assert_allclose(basis.hat_grads.sum(axis=0), 0.0,
                                   atol=1e-14)
        # hats reproduce affine functions: value = sum hat_i * f(vertex_i)
        coords = mesh.vertices[mesh.elements[t]]
        point = lam @ coords
        f = lambda p: 2.0 * p[..., 0] - 0.7 * p[..., 1] + 0.3
        assert np.isclose(basis.hat_values @ f(coords), f(point))


def test_rt_basis_normal_flux_is_kronecker():
    """Mean normal flux of the edge basis along the global edge normal."""
    mesh = refine_nvb(builtin_domain("l_shape"), [0, 2, 4])
    dm = build_dofmap(mesh)
    for t in range(mesh.n_elements):
        coords = mesh.element_geometry(t)[0]
        for i in range(3):
            e = mesh.elem_edges[t, i]
            midpoint = 0.5 * (coords[(i + 1) % 3] + coords[(i + 2) % 3])
            basis = eval_local_basis(dm, t, midpoint)
            tvec = coords[(i + 2) % 3] - coords[(i + 1) % 3]
            outward = np.array([tvec[1], -tvec[0]])
            outward /= np.linalg.norm(outward)
            n_global = outward * mesh.edge_signs[t, i]
            flux = basis.rt_values @ n_global
            expected = np.zeros(3)
            expected[i] = 1.0
            np.testing.assert_allclose(flux, expected, atol=1e-13)


def test_rt_divergence_matches_geometry():
    mesh = builtin_domain("unit_square")
    dm = build_dofmap(mesh)
    basis = eval_local_basis(dm, 0, np.array([1 / 3, 1 / 3, 1 / 3]))
    area = 0.5
    for i in range(3):
        e = mesh.elem_edges[0, i]
        a, b = mesh.edges[e]
        length = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
        sign = mesh.edge_signs[0, i]
        assert np.isclose(basis.rt_divs[i], sign * length / area)


def test_eval_rejects_outside_point():
    mesh = builtin_domain("unit_square")
    dm = build_dofmap(mesh)
    with pytest.raises(ValueError):
        eval_local_basis(dm, 0, np.array([2.0, 2.0]))


def test_barycentric_roundtrip():
    coords = np.array([[0.0, 0.0], [2.0, 0.5], [0.5, 3.0]])
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = rng.dirichlet(np.ones(3))
        point = lam @ coords
        np.testing.assert_allclose(barycentric(coords, point), lam,
                                   atol=1e-13)


def test_prolongation_shape_and_sparsity():
    rng = np.random.default_rng(17)
    coarse = refine_uniform(builtin_domain("unit_square"), rounds=2)
    cdm = build_dofmap(coarse)
    fine = refine_nvb(coarse, rng.choice(coarse.n_elements, 6, replace=False))
    fdm = build_dofmap(fine)
    P = prolongation_matrix(cdm, fdm)
    assert P.shape == (fdm.n_total, cdm.n_total)
    # each fine dof tents over a single coarse element: at most 3 couplings
    assert (np.diff(P.indptr) <= 3).all()


def test_prolongation_preserves_fields_pointwise():
    """Nestedness: the prolongated coefficient is the same function."""
    rng = np.random.default_rng(99)
    coarse = refine_uniform(builtin_domain("unit_square"), rounds=2)
    cdm = build_dofmap(coarse)
    coef = rng.standard_normal(cdm.n_total)
    fine = refine_nvb(coarse, rng.choice(coarse.n_elements, 5, replace=False))
    fdm = build_dofmap(fine)
    fcoef = prolongate(cdm, fdm, coef)

    from lsfem import eval_discrete

    def locate(mesh, p):
        for t in range(mesh.n_elements):
            lam = barycentric(mesh.vertices[mesh.elements[t]], p)
            if lam.min() >= -1e-12:
                return t
        raise AssertionError("point not located")

    for _ in range(50):
        p = rng.uniform(0.02, 0.98, 2)
        uc, gc, sc, _ = eval_discrete(cdm, coef, locate(coarse, p), p)
        uf, gf, sf, _ = eval_discrete(fdm, fcoef, locate(fine, p), p)
        assert abs(uc - uf) < 1e-12
        np.testing.assert_allclose(sc, sf, atol=1e-12)
        np.testing.assert_allclose(gc, gf, atol=1e-12)


def test_prolongation_across_two_refinements():
    """Two refine_nvb calls: the product of the one-level matrices."""
    rng = np.random.default_rng(23)
    coarse = refine_uniform(builtin_domain("l_shape"), rounds=1)
    middle = refine_nvb(coarse, rng.choice(coarse.n_elements, 5, replace=False))
    fine = refine_nvb(middle, rng.choice(middle.n_elements, 7, replace=False))
    cdm, mdm, fdm = (build_dofmap(m) for m in (coarse, middle, fine))
    with pytest.raises(ValueError):
        prolongation_matrix(cdm, fdm)
    P = (prolongation_matrix(mdm, fdm)
         @ prolongation_matrix(cdm, mdm))

    coef = rng.standard_normal(cdm.n_total)
    fcoef = P @ coef
    from lsfem import eval_discrete
    for t in range(fine.n_elements):
        # a point of the fine element lies in its grandparent
        t_c = int(middle.parent[fine.parent[t]])
        p = rng.dirichlet(np.ones(3)) @ fine.vertices[fine.elements[t]]
        uc, gc, sc, _ = eval_discrete(cdm, coef, t_c, p)
        uf, gf, sf, _ = eval_discrete(fdm, fcoef, t, p)
        assert abs(uc - uf) < 1e-12
        np.testing.assert_allclose(sc, sf, atol=1e-12)
        np.testing.assert_allclose(gc, gf, atol=1e-12)


def test_prolongate_same_mesh_is_identity():
    mesh = builtin_domain("unit_square")
    dm = build_dofmap(mesh)
    coef = np.arange(dm.n_total, dtype=float)
    np.testing.assert_array_equal(prolongate(dm, dm, coef), coef)


def test_prolongate_validates_length():
    mesh = builtin_domain("unit_square")
    dm = build_dofmap(mesh)
    fine = refine_nvb(mesh, [0])
    fdm = build_dofmap(fine)
    with pytest.raises(ValueError):
        prolongate(dm, fdm, np.zeros(dm.n_total + 1))


def test_interpolation_operators_are_projections():
    """Interpolating a discrete field returns its own coefficients."""
    rng = np.random.default_rng(41)
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=3)
    dm = build_dofmap(mesh)
    coef = rng.standard_normal(dm.n_total)

    # vertex part: evaluating the scalar field at interior vertices must
    # recover the vertex block
    def u_fn(p):
        out = np.empty(len(p))
        for k, point in enumerate(p):
            hit = np.flatnonzero(
                (np.abs(mesh.vertices[dm.interior_vertices] - point)
                 .sum(axis=1)) < 1e-14)
            # vertex values of the hat expansion are the coefficients
            out[k] = coef[hit[0]]
        return out

    nodal = nodal_interpolation(dm, u_fn)
    np.testing.assert_allclose(nodal[:dm.n_h1], coef[:dm.n_h1], atol=1e-14)

    # edge part: the mean-flux moments of the flux field reproduce the
    # edge block (projection property of the canonical interpolant)
    from lsfem import eval_discrete
    from lsfem.spaces import barycentric as bary

    def tau_fn(points):
        out = np.empty((len(points), 2))
        for k, p in enumerate(points):
            for t in range(mesh.n_elements):
                lam = bary(mesh.vertices[mesh.elements[t]], p)
                if lam.min() >= -1e-10:
                    _, _, sigma, _ = eval_discrete(dm, coef, t, p)
                    out[k] = sigma
                    break
            else:
                raise AssertionError("point not located")
        return out

    rt = edge_moment_interpolation(dm, tau_fn)
    np.testing.assert_allclose(rt[dm.n_h1:], coef[dm.n_h1:], atol=1e-12)
