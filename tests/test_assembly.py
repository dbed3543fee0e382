import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import lsfem.assembly
from lsfem import (ProblemSpec, SparseSpd, assemble_system, builtin_domain,
                   build_dofmap, eval_discrete, exact_solve, make_problem,
                   quadrature_rule, refine_nvb, refine_uniform)
from lsfem.assembly import _UPPER, QuadFields, _scatter_csr
from lsfem.errors import SolverError
from lsfem.problems import eval_data, eval_operator
from lsfem.solver import _pivots, _SuperLUObject


def _fixture(kind="general"):
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=2)
    dm = build_dofmap(mesh)
    if kind == "general":
        prob = make_problem(ProblemSpec(kind="general", f=1.0,
                                        a=[[2.0, 0.5], [0.5, 1.0]],
                                        b=[0.3, -0.7], c=1.5))
    else:
        prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    return mesh, dm, prob


def test_matrix_symmetric_bitwise():
    _, dm, prob = _fixture()
    system, _ = assemble_system(_fixture()[0], dm, prob)
    assert (system.matrix - system.matrix.T).nnz == 0
    assert system.matrix.shape == (dm.n_total, dm.n_total)


def test_assembly_deterministic():
    mesh, dm, prob = _fixture()
    s1, b1 = assemble_system(mesh, dm, prob)
    s2, b2 = assemble_system(mesh, dm, prob)
    np.testing.assert_array_equal(s1.matrix.data, s2.matrix.data)
    np.testing.assert_array_equal(s1.matrix.indices, s2.matrix.indices)
    np.testing.assert_array_equal(b1, b2)


@pytest.mark.parametrize("kind", ["poisson", "general"])
def test_energy_and_load_against_pointwise_quadrature(kind):
    """x' A x = int |L v|^2 and b' x = int F . L v, via the scalar API.

    The operator image of a lowest-order function is linear per element, so
    an order-4 rule integrates both quadratic integrands exactly and the
    identities hold to rounding.
    """
    mesh, dm, prob = _fixture(kind)
    system, rhs = assemble_system(mesh, dm, prob, quad_order=4)
    rng = np.random.default_rng(2024)
    coef = rng.standard_normal(dm.n_total)

    rule = quadrature_rule(4)
    energy = 0.0
    load = 0.0
    for t in range(mesh.n_elements):
        coords = mesh.vertices[mesh.elements[t]]
        d1 = coords[1] - coords[0]
        d2 = coords[2] - coords[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        for q in range(len(rule.weights)):
            lam = rule.points[q]
            point = lam @ coords
            state = eval_discrete(mesh, dm, coef, t, point)
            op = eval_operator(prob, point, state)
            data = eval_data(prob, point)
            w = area * rule.weights[q]
            energy += w * float(op @ op)
            load += w * float(data @ op)

    quad_form = float(coef @ (system.matrix @ coef))
    assert abs(quad_form - energy) < 1e-12 * max(1.0, abs(energy))
    assert abs(float(rhs @ coef) - load) < 1e-12 * max(1.0, abs(load))


def test_quad_fields_match_pointwise_eval():
    mesh, dm, prob = _fixture()
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(dm.n_total)
    rule = quadrature_rule(3)
    u, grad, sigma, div = QuadFields(mesh, dm, rule).evaluate(coef)
    for t in (0, mesh.n_elements // 2, mesh.n_elements - 1):
        coords = mesh.vertices[mesh.elements[t]]
        for q in (0, len(rule.weights) - 1):
            point = rule.points[q] @ coords
            pu, pg, ps, pd = eval_discrete(mesh, dm, coef, t, point)
            assert abs(u[t, q] - pu) < 1e-13
            np.testing.assert_allclose(grad[t], pg, atol=1e-13)
            np.testing.assert_allclose(sigma[t, q], ps, atol=1e-13)
            assert abs(div[t] - pd) < 1e-13


def test_exact_solve_residual():
    mesh, dm, prob = _fixture("poisson")
    system, rhs = assemble_system(mesh, dm, prob)
    x = exact_solve(system, rhs)
    resid = np.abs(system.matrix @ x - rhs).max()
    assert resid <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_zero_load_solves_to_zero():
    mesh = refine_nvb(builtin_domain("unit_square"), [0, 1])
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="poisson", manufactured="zero"))
    system, rhs = assemble_system(mesh, dm, prob)
    np.testing.assert_array_equal(rhs, np.zeros(dm.n_total))
    np.testing.assert_array_equal(exact_solve(system, rhs),
                                  np.zeros(dm.n_total))


def test_spd_wrapper_rejects_indefinite_and_nonsquare():
    with pytest.raises(ValueError):
        SparseSpd(np.zeros((2, 3)))
    indefinite = SparseSpd(np.diag([1.0, -1.0]))
    with pytest.raises(SolverError):
        indefinite.factor()


def test_factor_rejects_non_finite_pivot():
    with pytest.raises(SolverError, match="non-positive pivot"):
        SparseSpd(np.diag([1.0, np.inf])).factor()


# SparseSpd.factor's options, the same with SuperLU's default supernode
# relaxation, then scipy's defaults (row pivoting)
_FACTOR_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       relax=1, options={"SymmetricMode": True})
_RELAXED_OPTIONS = dict(_FACTOR_OPTIONS, relax=None)
_SPLU_OPTIONS = [_FACTOR_OPTIONS, _RELAXED_OPTIONS, {}]


def _pivot_test_matrices():
    for kind in ("general", "poisson"):
        mesh, dm, prob = _fixture(kind)
        yield kind, assemble_system(mesh, dm, prob)[0].matrix
    rng = np.random.default_rng(11)
    b = rng.standard_normal((60, 60))
    yield "random spd", sp.csr_matrix(b @ b.T + 60.0 * np.eye(60))
    sym = sp.random(80, 80, density=0.1, random_state=12)
    yield "symmetric indefinite", sp.csr_matrix(sym + sym.T + sp.eye(80))
    yield "1x1", sp.csr_matrix([[2.5]])


@pytest.mark.parametrize("options", _SPLU_OPTIONS)
def test_pivots_match_scipy_u_diagonal(options):
    """The reader of SuperLU's private layout agrees with scipy's own U bit
    for bit, so a scipy release that changes that layout fails here."""
    for name, matrix in _pivot_test_matrices():
        lu = splu(matrix.tocsc(), **options)
        pivots = _pivots(lu)                    # before lu.U exists
        expected = lu.U.diagonal()
        np.testing.assert_array_equal(pivots.view(np.uint64),
                                      expected.view(np.uint64), err_msg=name)
        if name == "symmetric indefinite":
            assert (pivots < 0).any()


@pytest.mark.parametrize("part, field, value", [
    (None, "m", 5), (None, "n", 5), ("lower", "Stype", 0),
    ("lower", "Dtype", 0), ("lower", "nrow", 5), ("upper", "Stype", 3)])
def test_pivot_reader_rejects_unexpected_layout(part, field, value):
    """Each header field the reader checks is altered in place on a live
    factor, then restored."""
    lu = splu(sp.csc_matrix(np.diag([1.0, 2.0, 3.0])))
    head = _SuperLUObject.from_address(id(lu))
    target = getattr(head, part) if part else head
    saved = getattr(target, field)
    setattr(target, field, value)
    try:
        with pytest.raises(SolverError, match="layout"):
            _pivots(lu)
    finally:
        setattr(target, field, saved)
    np.testing.assert_array_equal(_pivots(lu), [1.0, 2.0, 3.0])


def test_pivot_reader_rejects_other_objects():
    with pytest.raises(SolverError, match="SuperLU"):
        _pivots(sp.eye(3))


@pytest.fixture(scope="module")
def lshape_system():
    """System and load of a ``general`` problem on the uniform L-shape with
    12,289 dofs."""
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=10)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="general", f=1.0,
                                    a=[[1.05, 0.02], [0.02, 0.97]],
                                    b=[0.03, -0.07]))
    system, rhs = assemble_system(mesh, dm, prob)
    assert dm.n_total == 12_289
    return system, rhs


def test_factor_keeps_no_csc_copies(lshape_system):
    """The factor holds only SuperLU's own storage, which tracemalloc does
    not see.  Reading ``lu.U`` would leave CSC copies of both factors on it
    (8.7 MiB of numpy buffers here, which tracemalloc does see).  Nor is
    the matrix copied on the way in: a ``tocsc()`` copy (1.7 MiB here)
    would show in the peak."""
    system, _ = lshape_system
    matrix = system.matrix
    matrix_bytes = (matrix.data.nbytes + matrix.indices.nbytes
                    + matrix.indptr.nbytes)
    tracemalloc.start()
    try:
        system.factor()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 2 ** 20
    assert peak < 0.5 * matrix_bytes


def test_factor_without_supernode_relaxation(lshape_system):
    """Without relaxed supernodes the factor stores 456,066 entries here,
    against 748,362 with SuperLU's default relaxation and the same
    ordering, and the solution changes only by rounding."""
    system, rhs = lshape_system
    lu = system.factor()
    relaxed = splu(system.matrix.tocsc(), **_RELAXED_OPTIONS)
    assert lu.nnz < 0.7 * relaxed.nnz
    x, expected = lu.solve(rhs), relaxed.solve(rhs)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_matrix_positive_definite_on_fixture():
    mesh, dm, prob = _fixture()
    system, _ = assemble_system(mesh, dm, prob)
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(dm.n_total)
        assert float(v @ (system.matrix @ v)) > 0.0


def test_quadrature_order_forwarded():
    # an order-1 rule misintegrates the quadratic integrand, so the energy
    # identity must fail; guards against the order being silently ignored
    mesh, dm, prob = _fixture("poisson")
    lo, _ = assemble_system(mesh, dm, prob, quad_order=1)
    hi, _ = assemble_system(mesh, dm, prob, quad_order=4)
    assert np.abs(lo.matrix.toarray() - hi.matrix.toarray()).max() > 1e-6


def _scatter_csr_lexsort(rows, cols, vals, n):
    """Reference scatter: filter, 3-key lexsort, sequential group sums."""
    keep = (rows >= 0) & (cols >= 0)
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    seq = np.arange(len(vals))
    order = np.lexsort((seq, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    new_group = np.ones(len(vals), dtype=bool)
    new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(new_group)
    summed = np.add.reduceat(vals, starts)
    r, c = rows[starts], cols[starts]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.add.at(indptr, r + 1, 1)
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((summed, c, indptr), shape=(n, n))


def _assert_same_csr(a, b):
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)


def _entries(element_dofs, upper):
    """The 36 entries of every local matrix in (element, j, k) order:
    rows, cols and values, (j, k) and (k, j) read from one upper entry."""
    rows = np.repeat(element_dofs, 6, axis=1).ravel()
    cols = np.tile(element_dofs, (1, 6)).ravel()
    return rows, cols, upper[:, _UPPER].ravel()


def _random_upper(rng, nt):
    """Upper triangles of mixed magnitude, so any change in the summation
    order changes bits."""
    return rng.standard_normal((nt, 21)) * 10.0 ** rng.integers(
        -8, 8, size=(nt, 21))


def test_scatter_matches_lexsort_reference():
    rng = np.random.default_rng(31)
    n = 40
    # many duplicates, constrained (-1) entries, dofs repeated inside one
    # element and values of mixed magnitude
    element_dofs = rng.integers(-1, n, size=(140, 6))
    assert any(len(set(row) - {-1}) < (row >= 0).sum() for row in element_dofs)
    upper = _random_upper(rng, 140)
    expected = _scatter_csr_lexsort(*_entries(element_dofs, upper), n)
    _assert_same_csr(_scatter_csr(element_dofs.copy(), upper.copy(), n),
                     expected)


def _graded_l_shape():
    """An L-shape graded toward the re-entrant corner, vertex 3."""
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=2)
    for _ in range(3):
        mesh = refine_nvb(mesh, np.flatnonzero((mesh.elements == 3).any(axis=1)))
    return mesh


@pytest.mark.parametrize("block", [1, 7, 36, 150])
def test_blocked_scatter_matches_lexsort_reference(block, monkeypatch):
    """Row blocks of any size give the bytes of one sort over all entries:
    on a graded L-shape, on the coarse meshes, which have no interior
    vertex, and on random tables with -1 entries and dofs repeated inside
    one element.  Blocks of 1 or 7 entries are smaller than a row, which
    leaves empty blocks between the rows."""
    monkeypatch.setattr(lsfem.assembly, "_SCATTER_BLOCK", block)
    rng = np.random.default_rng(41)
    graded = build_dofmap(_graded_l_shape())
    assert 36 * len(graded.element_dofs) >= 10 * block  # ten blocks or more
    cases = []
    for dm in (graded, build_dofmap(builtin_domain("unit_square")),
               build_dofmap(builtin_domain("l_shape"))):
        cases.append((dm.element_dofs, dm.n_total))
    assert (cases[1][0][:, :3] == -1).all() and (cases[2][0][:, :3] == -1).all()
    for n, nt in ((40, 140), (300, 90), (3, 5)):
        cases.append((rng.integers(-1, n, size=(nt, 6)), n))
    for element_dofs, n in cases:
        upper = _random_upper(rng, len(element_dofs))
        expected = _scatter_csr_lexsort(*_entries(element_dofs, upper), n)
        _assert_same_csr(_scatter_csr(element_dofs, upper, n), expected)


@pytest.mark.parametrize("element_dofs, n", [
    (np.full((1, 6), -1), 1),
    (np.full((3, 6), -1), 4),
    (np.empty((0, 6), dtype=int), 5),
    (np.empty((0, 6), dtype=int), 0)])
def test_scatter_without_entries_is_empty(element_dofs, n):
    matrix = _scatter_csr(element_dofs, np.ones((len(element_dofs), 21)), n)
    assert matrix.shape == (n, n) and matrix.nnz == 0
    np.testing.assert_array_equal(matrix.indptr, np.zeros(n + 1))


@pytest.mark.parametrize("bad", [3, 4, -2])
def test_scatter_rejects_out_of_range_dofs(bad):
    element_dofs = np.array([[0, 1, 2, -1, 1, bad]])
    with pytest.raises(ValueError, match="element dofs"):
        _scatter_csr(element_dofs, np.ones((1, 21)), 3)


def _scatter_runs(rows, cols, vals):
    """The values summed into each kept position, in (row, col) order, each
    run in input order."""
    runs = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        if r >= 0 and c >= 0:
            runs.setdefault((r, c), []).append(v)
    return [runs[key] for key in sorted(runs)]


def _inner_first(run):
    """c0 + (c1 + ... + ck), the inner sum sequential, in Python floats."""
    first, *rest = run
    if not rest:
        return first
    inner = rest[0]
    for v in rest[1:]:
        inner += v
    return first + inner


def test_scatter_summation_order_is_pinned():
    """``_scatter_csr`` sums each position in the order its docstring
    states, on the pattern of a graded L-shape, so a numpy release that
    changes ``np.add.reduceat``'s order fails here."""
    dm = build_dofmap(_graded_l_shape())
    gdofs = dm.element_dofs
    rng = np.random.default_rng(37)
    # mixed magnitudes, so another order changes bits
    upper = _random_upper(rng, len(gdofs))
    runs = _scatter_runs(*_entries(gdofs, upper))
    # the shipped configs' meshes have at most 8 elements at a vertex, and
    # numpy sums runs of up to 8 values in the order pinned here
    assert 3 <= max(map(len, runs)) <= 8
    got = _scatter_csr(gdofs, upper, dm.n_total).data
    assert np.array_equal(got, [_inner_first(run) for run in runs])
    # the element-order sequential sum differs, so the pin has teeth
    assert not np.array_equal(
        got, [np.add.accumulate(run)[-1] for run in runs])


@pytest.mark.parametrize("kind", ["poisson", "general"])
def test_blocked_assembly_matches_single_block(kind, monkeypatch):
    prob = _fixture(kind)[2]
    mesh = refine_nvb(refine_uniform(builtin_domain("unit_square"), rounds=4),
                      [0, 3, 5])                    # graded, 36 elements
    dm = build_dofmap(mesh)
    assert mesh.n_elements % 7 and (dm.element_dofs < 0).any()
    monkeypatch.setattr(lsfem.assembly, "_BLOCK", mesh.n_elements)
    whole, rhs_whole = assemble_system(mesh, dm, prob)
    monkeypatch.setattr(lsfem.assembly, "_BLOCK", 7)
    blocked, rhs_blocked = assemble_system(mesh, dm, prob)
    _assert_same_csr(blocked.matrix, whole.matrix)
    np.testing.assert_array_equal(rhs_blocked, rhs_whole)


def test_assembly_memory_peak_bounded():
    """Assembly's transient memory stays a small multiple of its output.

    The ``tracemalloc`` peak counts every numpy buffer, so the ratio does
    not depend on the machine.  Blocked assembly with the row-block scatter
    needs about 3 times the returned CSR arrays here; one sort over all 36
    entries of every local matrix needed about 5.4 times, and building all
    operator images at once and sorting three keys about 16 times.
    """
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=12)
    dm = build_dofmap(mesh)
    prob = make_problem(ProblemSpec(kind="general", f=1.0,
                                    a=[[1.05, 0.02], [0.02, 0.97]],
                                    b=[0.03, -0.07]))
    mesh.geometry                                   # cached level data
    tracemalloc.start()
    try:
        system, _ = assemble_system(mesh, dm, prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = system.matrix
    assert mesh.n_elements == 24_576
    assert peak <= 4 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _operator_basis_images_reference(mesh, problem, rule, scale):
    """The einsum formulation of the operator images, element axis first:
    images (nt, nq, 6, 3), absolute weights (nt, nq) and points (nt, nq, 2).
    The constant coefficients are spread to every point, so each product
    is formed per point as in a point-function formulation."""
    geometry = mesh.geometry
    phys = np.einsum("qi,tid->tqd", rule.points, geometry["coords"])
    w_abs = rule.weights[None, :] * geometry["area"][:, None]
    nt, nq = w_abs.shape
    a_vals = np.broadcast_to(problem.a, (nt, nq, 2, 2))
    b_vals = np.broadcast_to(problem.b, (nt, nq, 2))
    c_vals = np.broadcast_to(problem.c, (nt, nq))
    grads = geometry["hat_grads"]
    images = np.zeros((nt, nq, 6, 3))
    images[:, :, :3, 0] = (np.einsum("tqd,tjd->tqj", b_vals, grads)
                           + c_vals[:, :, None] * rule.points[None, :, :])
    a_grad = np.einsum("tqde,tje->tqjd", a_vals, grads)
    images[:, :, :3, 1] = a_grad[..., 0]
    images[:, :, :3, 2] = a_grad[..., 1]
    rel = phys[:, :, None, :] - geometry["coords"][:, None]
    psi = scale[:, None, :, None] * rel
    images[:, :, 3:, 0] = -2.0 * scale[:, None, :]
    images[:, :, 3:, 1] = -psi[..., 0]
    images[:, :, 3:, 2] = -psi[..., 1]
    return images, w_abs, phys


def _assemble_reference(mesh, dm, problem, quad_order):
    """``assemble_system`` with the einsum kernels, all elements at once."""
    rule = quadrature_rule(quad_order)
    images, w_abs, phys = _operator_basis_images_reference(
        mesh, problem, rule, mesh.rt_scale)
    data = np.zeros(w_abs.shape + (3,))
    data[:, :, 0] = problem.f_fn(phys.reshape(-1, 2)).reshape(w_abs.shape)
    local = np.einsum("tqjc,tqkc,tq->tjk", images, images, w_abs)
    local_rhs = np.einsum("tqc,tqjc,tq->tj", data, images, w_abs)
    gdofs = dm.element_dofs
    rhs = np.zeros(dm.n_total)
    keep = gdofs.ravel() >= 0
    np.add.at(rhs, gdofs.ravel()[keep], local_rhs.ravel()[keep])
    matrix = _scatter_csr_lexsort(np.repeat(gdofs, 6, axis=1).ravel(),
                                  np.tile(gdofs, (1, 6)).ravel(),
                                  local.ravel(), dm.n_total)
    return matrix, rhs


_ORACLE_PROBLEMS = {
    "general": ProblemSpec(kind="general", f=1.0, a=[[2.0, 0.5], [0.5, 1.0]],
                           b=[0.3, -0.7], c=1.5),
    # c = -omega^2 < 0 and a non-constant load
    "helmholtz": ProblemSpec(kind="general", manufactured="sine", omega=3.0),
    "manufactured_poisson": ProblemSpec(kind="poisson",
                                        manufactured="poly_bubble"),
}


def _assert_same_bytes(mesh, dm, spec, quad_order):
    prob = make_problem(spec)
    system, rhs = assemble_system(mesh, dm, prob, quad_order=quad_order)
    matrix, ref_rhs = _assemble_reference(mesh, dm, prob, quad_order)
    for name in ("indptr", "indices", "data"):
        assert (getattr(system.matrix, name).tobytes()
                == getattr(matrix, name).tobytes()), name
    assert rhs.tobytes() == ref_rhs.tobytes()


@pytest.mark.parametrize("order", range(1, 11))
@pytest.mark.parametrize("kind", sorted(_ORACLE_PROBLEMS))
def test_assembly_bytes_match_einsum_reference(kind, order):
    """The element-last kernels keep einsum's summation order, so the CSR
    arrays and the load agree with the einsum formulation byte for byte,
    zero signs included."""
    mesh = refine_nvb(refine_uniform(builtin_domain("unit_square"), rounds=4),
                      [0, 3, 5])                    # graded, 36 elements
    dm = build_dofmap(mesh)
    assert (dm.element_dofs < 0).any()
    _assert_same_bytes(mesh, dm, _ORACLE_PROBLEMS[kind], order)


def _one_past_a_block():
    mesh = refine_uniform(builtin_domain("unit_square"), rounds=11)
    return refine_nvb(mesh, [666])                  # one boundary bisection


def _graded_three_blocks():
    mesh = refine_uniform(builtin_domain("l_shape"), rounds=10)
    return refine_nvb(mesh, list(range(0, mesh.n_elements, 4)))


@pytest.mark.parametrize("make_mesh, n_elements", [
    (_one_past_a_block, lsfem.assembly._BLOCK + 1),
    (_graded_three_blocks, 9_216)])
def test_blocked_assembly_bytes_match_einsum_reference(make_mesh, n_elements):
    """Meshes of more than one block, the last one partial."""
    mesh = make_mesh()
    assert mesh.n_elements == n_elements
    dm = build_dofmap(mesh)
    assert (dm.element_dofs < 0).any()
    for kind, order in (("general", 4), ("helmholtz", 6),
                        ("manufactured_poisson", 3)):
        _assert_same_bytes(mesh, dm, _ORACLE_PROBLEMS[kind], order)
