"""Linear solvers: sparse factorization and preconditioned CG.

This is the one module that knows how a system is solved; assembly only
builds the matrix.  ``exact_solve`` asks ``SparseSpd.factor`` for a new
factor, uses it for its one solve and drops it, and that factorization is
the positive-definiteness proof on the exact path.  Its pivots, the
diagonal of U, are read in place from SuperLU's supernodal storage of L;
``lu.L`` and ``lu.U`` are never read, because reading either one converts
both factors to CSC and caches the copies on the factor for its whole
life.

The PCG loop tracks the quantities the adaptive driver consumes: the
A-norm of each increment (for the lambda stopping rule), the l2 residual
history, and, when a reference solution is supplied, the energy-norm error
of every iterate.  A single PCG step contracts the energy error at least by
q_ctr = (1 - 1/C_pcg)^(1/2) where C_pcg bounds the condition number of the
preconditioned matrix; ``estimate_pcg_contraction`` measures that constant.

The lambda rule ``||x_n - x_{n-1}||_A <= lam * eta(x_n)`` needs eta only
where it can stop.  When eta is L-Lipschitz in the energy norm,
eta(x_n) <= eta(x_k) + L ||x_n - x_k||_A for the last iterate x_k whose eta
was evaluated, and a step whose increment exceeds lam times that bound
cannot stop, so its evaluation is skipped.  ``pcg_run`` carries
A(x_n - x_k) along from the A d it forms anyway: no extra matvec.  The stop
itself is decided on an evaluated eta alone, so the iterates, the stopping
step and every output bit are those of an evaluation at every step.  For
the residual estimator eta(x) = ||F - L x|| at quadrature points with
positive weights, the triangle inequality gives L = 1 whenever that norm
of L v is ||v||_A.  ``Problem`` holds the coefficients a, b and c as
constants, so L v is piecewise P1 on S1 x RT0 and a rule exact to
degree 2 integrates |L v|^2 exactly; the assembly and estimator rules
both need that degree.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, SuperLU, eigsh, splu

from .errors import NumericalEstimateError, SolverError

PRECONDS = ("none", "jacobi")
MAX_EIG_DIM = 20_000
_DENSE_EIG_DIM = 200
# relative widening of the eta bound of ``IncrementStop``, far above rounding
_BOUND_SLACK = 1e-6

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
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")

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


@dataclass(frozen=True)
class FixedSteps:
    """Run exactly n PCG steps."""
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("fixed step count must be at least 1")

    @property
    def max_steps(self):
        return self.n


@dataclass(frozen=True)
class IncrementStop:
    """Stop once ||x_n - x_{n-1}||_A <= lam * eta(x_n).

    ``eta`` is either a fixed reference value, finite and nonnegative, or a
    callable evaluated at the candidate iterate.  ``max_steps`` caps the
    loop.

    ``eta_lipschitz`` is a constant L with eta(x) <= eta(y) + L ||x - y||_A
    for all x, y, or None when no such constant is known.  With None the
    callable is evaluated after every step.  With L, ``pcg_run`` evaluates
    it only where ``increment <= lam * (eta(x_k) + L ||x_n - x_k||_A)``,
    x_k being the last evaluated iterate, widened by ``_BOUND_SLACK`` so that
    rounding in the bound cannot skip a step that stops (a relative error
    near eps * ||F|| / eta, about 1e-13 at eta / ||F|| = 1e-3).  Either way
    the loop stops only on an evaluated eta, at the same step and iterate.
    """
    lam: float
    eta: Union[float, Callable]
    max_steps: int = 500
    eta_lipschitz: Optional[float] = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not callable(self.eta) and not 0.0 <= float(self.eta) < np.inf:
            raise ValueError(
                f"eta must be finite and nonnegative, got {self.eta!r}")
        if (self.eta_lipschitz is not None
                and not 0.0 <= self.eta_lipschitz < np.inf):
            raise ValueError(
                "eta_lipschitz must be finite and nonnegative, got "
                f"{self.eta_lipschitz!r}")


@dataclass(frozen=True)
class ResidualTol:
    """Stop once ||r_n||_2 <= tol * ||b||_2 (absolute when b = 0)."""
    tol: float
    max_steps: int = 10_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("residual tolerance must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class PcgResult:
    x: np.ndarray                       # the final iterate x_n
    iterations: int
    residual_norms: list                # of x_0, ..., x_n
    increments: list                    # A-norm of each step, length = iterations
    energy_errors: Optional[list]       # of x_0, ..., x_n when reference given
    stop_reason: str                    # max_iter | increment_criterion | residual_tol


def _as_system(matrix):
    if isinstance(matrix, SparseSpd):
        return matrix
    return SparseSpd(matrix)


def _check_finite(v, name):
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")


def exact_solve(system, rhs):
    """Solve with a new factorization and re-verify the residual.

    A non-finite ``rhs`` raises ``ValueError``; a residual that fails the
    check, NaN included, raises ``SolverError``.

    The factor lives only for this call: nothing solves one system twice,
    so keeping it would only hold its memory through the rest of the level.
    """
    system = _as_system(system)
    A = system.matrix
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (A.shape[0],):
        raise ValueError("right-hand side length does not match the matrix")
    _check_finite(rhs, "right-hand side")
    x = system.factor().solve(rhs)
    rnorm = float(np.linalg.norm(rhs - A @ x))
    bnorm = float(np.linalg.norm(rhs))
    if not rnorm <= 1e-12 * max(bnorm, 1.0):
        raise SolverError(
            f"direct solve left relative residual {rnorm / max(bnorm, 1e-300):.3e}")
    return x


def _preconditioner(matrix, precond):
    """The one definition of the preconditioners in ``PRECONDS``.

    Returns the diagonal D of ``matrix`` for ``jacobi``, whose
    preconditioner is D^-1, and None for ``none``, the identity.
    """
    if precond not in PRECONDS:
        raise SolverError(f"unknown preconditioner {precond!r}")
    if precond == "none":
        return None
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("jacobi preconditioner needs a positive diagonal")
    return diag


def pcg_run(system, rhs, precond="jacobi", x0=None, stop=FixedSteps(1),
            reference=None):
    """Preconditioned conjugate gradients with pluggable stopping rules.

    Always performs at least one step.  Returns the final iterate along
    with residual norms, A-norm increments, and (if ``reference`` is given)
    energy-norm errors per iterate.  A non-finite ``rhs`` or ``x0`` raises
    ``ValueError``.  A search direction whose d.Ad is not positive (NaN
    included) raises ``SolverError``, and so does a preconditioned residual
    with r.z < 0, or with r.z = 0 while r is nonzero; only a zero residual,
    or one so small that r.z underflows, takes a null step.  An
    ``IncrementStop`` whose callable eta evaluates to a value that is not
    finite and nonnegative raises ``SolverError``; with ``eta_lipschitz``
    set, eta is evaluated only at the steps its bound cannot rule out.
    """
    A = _as_system(system).matrix
    n = A.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n,):
        raise ValueError("right-hand side length does not match the matrix")
    _check_finite(rhs, "right-hand side")
    diag = _preconditioner(A, precond)
    inv = None if diag is None else 1.0 / diag

    def apply_p(r):
        return r if inv is None else inv * r

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError("initial iterate length does not match the matrix")
    _check_finite(x, "initial iterate")

    bnorm = float(np.linalg.norm(rhs))

    def energy_error(v):
        d = reference - v
        return float(np.sqrt(max(d @ (A @ d), 0.0)))

    r = rhs - A @ x
    z = apply_p(r)
    d = z.copy()
    rz = float(r @ z)
    residuals = [float(np.linalg.norm(r))]
    increments = []
    energies = None if reference is None else [energy_error(x)]
    stop_reason = "max_iter"

    # the eta bound of IncrementStop: the last evaluated iterate x_k, its
    # eta (None until the first evaluation) and A (x_n - x_k)
    bounded = (isinstance(stop, IncrementStop) and callable(stop.eta)
               and stop.eta_lipschitz is not None)
    x_k = eta_k = None
    a_delta = np.zeros(n) if bounded else None

    n_steps = 0
    while n_steps < stop.max_steps:
        if rz > 0.0:
            ad = A @ d
            dad = float(d @ ad)
            if not dad > 0.0:
                raise SolverError(
                    f"non-positive curvature d.Ad = {dad:.3e} at PCG step "
                    f"{n_steps + 1}: the matrix is not positive definite")
            alpha = rz / dad
            x = x + alpha * d
            r = r - alpha * ad
            if bounded:
                a_delta += alpha * ad
            z = apply_p(r)
            rz_new = float(r @ z)
            beta = rz_new / rz
            rz = rz_new
            d = z + beta * d
            increment = alpha * float(np.sqrt(dad))
        else:
            # r.z = 0 is a null step only when r is zero, or so small that
            # r.z underflows, as CG run far past convergence reaches
            u = r / max(np.abs(r).max(), 1e-300)
            if rz < 0.0 or (np.any(u) and not float(u @ apply_p(u)) > 0.0):
                raise SolverError(
                    f"r.z = {rz:.3e} at PCG step {n_steps + 1} with r != 0: "
                    "the preconditioner is not positive definite")
            increment = 0.0
        n_steps += 1
        increments.append(increment)
        residuals.append(float(np.linalg.norm(r)))
        if energies is not None:
            energies.append(energy_error(x))

        if isinstance(stop, IncrementStop):
            if not callable(stop.eta):
                eta = float(stop.eta)
            else:
                if eta_k is not None:
                    bound = eta_k + stop.eta_lipschitz * float(
                        np.sqrt(max((x - x_k) @ a_delta, 0.0)))
                    if increment > stop.lam * bound * (1.0 + _BOUND_SLACK):
                        continue        # eta(x) <= bound: no stop here
                eta = float(stop.eta(x))
                if not 0.0 <= eta < np.inf:
                    raise SolverError(
                        f"eta evaluated to {eta!r} at PCG step {n_steps}: "
                        "it must be finite and nonnegative")
                if bounded:
                    x_k, eta_k = x, eta
                    a_delta[:] = 0.0
            if increment <= stop.lam * eta:
                stop_reason = "increment_criterion"
                break
        elif isinstance(stop, ResidualTol):
            if residuals[-1] <= stop.tol * max(bnorm, 1e-300) or residuals[-1] == 0.0:
                stop_reason = "residual_tol"
                break

    return PcgResult(x=x, iterations=n_steps,
                     residual_norms=residuals, increments=increments,
                     energy_errors=energies, stop_reason=stop_reason)


def estimate_pcg_contraction(system, precond="jacobi"):
    """Measure C_pcg = lambda_max / lambda_min of the preconditioned matrix.

    Small systems are diagonalized densely; larger ones use Lanczos
    iterations with a deterministic start vector (largest eigenvalue
    directly, smallest through a shift-invert factorization).  Returns
    (C_pcg, q_ctr) with q_ctr = sqrt(1 - 1/C_pcg).
    """
    S = _as_system(system).matrix
    n = S.shape[0]
    diag = _preconditioner(S, precond)
    if n > MAX_EIG_DIM:
        raise ValueError(
            f"system size {n} exceeds the supported maximum {MAX_EIG_DIM}")
    if diag is not None:
        scale = sp.diags(1.0 / np.sqrt(diag))
        S = (scale @ S @ scale).tocsr()
    if n <= _DENSE_EIG_DIM:
        dense = S.toarray()
        dense = 0.5 * (dense + dense.T)
        eigs = np.linalg.eigvalsh(dense)
        lo, hi = float(eigs[0]), float(eigs[-1])
    else:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        try:
            hi = float(eigsh(S, k=1, which="LA", v0=v0, maxiter=10_000,
                             return_eigenvectors=False)[0])
            lo = float(eigsh(S, k=1, sigma=0.0, which="LM", v0=v0,
                             maxiter=10_000, return_eigenvectors=False)[0])
        except ArpackNoConvergence as exc:
            raise NumericalEstimateError(
                f"extremal eigenvalue estimate did not converge: {exc}") from exc
    if lo <= 0.0 or not np.isfinite(lo) or not np.isfinite(hi):
        raise SolverError(
            "preconditioned matrix is not positive definite")
    c_pcg = max(hi / lo, 1.0)
    q_ctr = float(np.sqrt(1.0 - 1.0 / c_pcg))
    return c_pcg, q_ctr
