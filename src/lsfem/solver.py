"""Linear solvers: sparse factorization and preconditioned CG.

The PCG loop tracks the quantities the adaptive driver consumes: the
A-norm of each increment (for the lambda stopping rule), the l2 residual
history, and, when a reference solution is supplied, the energy-norm error
of every iterate.  A single PCG step contracts the energy error at least by
q_ctr = (1 - 1/C_pcg)^(1/2) where C_pcg bounds the condition number of the
preconditioned matrix; ``estimate_pcg_contraction`` measures that constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .assembly import SparseSpd
from .errors import NumericalEstimateError, SolverError

PRECONDS = ("none", "jacobi")
MAX_EIG_DIM = 20_000
_DENSE_EIG_DIM = 200


@dataclass(frozen=True)
class FixedSteps:
    """Run exactly n PCG steps."""
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("fixed step count must be at least 1")


@dataclass(frozen=True)
class IncrementStop:
    """Stop once ||x_n - x_{n-1}||_A <= lam * eta(x_n).

    ``eta`` is either a fixed reference value or a callable evaluated at the
    candidate iterate on every stop check.  ``max_steps`` caps the loop.
    """
    lam: float
    eta: Union[float, Callable]
    max_steps: int = 500

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class ResidualTol:
    """Stop once ||r_n||_2 <= tol * ||b||_2 (absolute when b = 0)."""
    tol: float
    max_steps: int = 10_000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("residual tolerance must be positive")


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
    return SparseSpd(sp.csr_matrix(matrix))


def exact_solve(system, rhs):
    """Solve with a new factorization and re-verify the residual.

    The factor lives only for this call: nothing solves one system twice,
    so keeping it would only hold its memory through the rest of the level.
    """
    system = _as_system(system)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (system.n,):
        raise ValueError("right-hand side length does not match the matrix")
    x = system.factor().solve(rhs)
    rnorm = float(np.linalg.norm(rhs - system.matvec(x)))
    bnorm = float(np.linalg.norm(rhs))
    if rnorm > 1e-12 * max(bnorm, 1.0):
        raise SolverError(
            f"direct solve left relative residual {rnorm / max(bnorm, 1e-300):.3e}")
    return x


def _apply_precond(system, precond):
    if precond == "none":
        return lambda r: r
    if precond == "jacobi":
        diag = system.diagonal()
        if np.any(diag <= 0.0):
            raise SolverError("jacobi preconditioner needs a positive diagonal")
        inv = 1.0 / diag
        return lambda r: inv * r
    raise SolverError(f"unknown preconditioner {precond!r}")


def pcg_run(system, rhs, precond="jacobi", x0=None, stop=FixedSteps(1),
            reference=None):
    """Preconditioned conjugate gradients with pluggable stopping rules.

    Always performs at least one step.  Returns the final iterate along
    with residual norms, A-norm increments, and (if ``reference`` is given)
    energy-norm errors per iterate.  A search direction with d.Ad <= 0 while
    the residual is nonzero raises ``SolverError``.
    """
    system = _as_system(system)
    A = system.matrix
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (system.n,):
        raise ValueError("right-hand side length does not match the matrix")
    apply_p = _apply_precond(system, precond)
    x = np.zeros(system.n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (system.n,):
        raise ValueError("initial iterate length does not match the matrix")

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

    if isinstance(stop, FixedSteps):
        max_steps = stop.n
    else:
        max_steps = stop.max_steps

    n_steps = 0
    while n_steps < max_steps:
        ad = A @ d
        dad = float(d @ ad)
        if rz <= 0.0:
            # residual already exactly zero: null step
            increment = 0.0
        elif dad <= 0.0:
            raise SolverError(
                f"non-positive curvature d.Ad = {dad:.3e} at PCG step "
                f"{n_steps + 1}: the matrix is not positive definite")
        else:
            alpha = rz / dad
            x = x + alpha * d
            r = r - alpha * ad
            z = apply_p(r)
            rz_new = float(r @ z)
            beta = rz_new / rz
            rz = rz_new
            d = z + beta * d
            increment = abs(alpha) * float(np.sqrt(max(dad, 0.0)))
        n_steps += 1
        increments.append(increment)
        residuals.append(float(np.linalg.norm(r)))
        if energies is not None:
            energies.append(energy_error(x))

        if isinstance(stop, IncrementStop):
            eta = stop.eta(x) if callable(stop.eta) else float(stop.eta)
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


def _preconditioned_operator(system, precond):
    A = system.matrix.tocsr()
    if precond == "none":
        return A
    diag = system.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("jacobi preconditioner needs a positive diagonal")
    scale = sp.diags(1.0 / np.sqrt(diag))
    return (scale @ A @ scale).tocsr()


def estimate_pcg_contraction(system, precond="jacobi"):
    """Measure C_pcg = lambda_max / lambda_min of the preconditioned matrix.

    Small systems are diagonalized densely; larger ones use Lanczos
    iterations with a deterministic start vector (largest eigenvalue
    directly, smallest through a shift-invert factorization).  Returns
    (C_pcg, q_ctr) with q_ctr = sqrt(1 - 1/C_pcg).
    """
    system = _as_system(system)
    if precond not in PRECONDS:
        raise SolverError(f"unknown preconditioner {precond!r}")
    if system.n > MAX_EIG_DIM:
        raise ValueError(
            f"system size {system.n} exceeds the supported maximum {MAX_EIG_DIM}")
    S = _preconditioned_operator(system, precond)
    n = system.n
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
