"""Problem definitions: first-order reformulations of scalar elliptic PDEs.

The solved system acts on pairs (u, sigma):

    poisson:   L(u, sigma) = (-div sigma,              grad u - sigma)
    general:   L(u, sigma) = (-div sigma + b.grad u + c u,  A grad u - sigma)

with data F = (f, 0) and homogeneous Dirichlet conditions on u.  The
residual F - L(u_h, sigma_h) drives both the solve and the error estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .typecheck import check_fields

_KINDS = ("poisson", "general")
_MANUFACTURED = ("poly_bubble", "sine", "zero")


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form manufactured solution with all derived fields."""

    u: Callable
    grad_u: Callable
    sigma: Callable
    div_sigma: Callable


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    manufactured: Optional[str] = None
    f: Optional[float] = None
    a: Optional[tuple[tuple[float, float], tuple[float, float]]] = None
    b: Optional[tuple[float, float]] = None
    c: Optional[float] = None
    omega: Optional[float] = None

    def __post_init__(self):
        check_fields(self)
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown problem kind {self.kind!r}")
        if self.kind == "poisson":
            for name in ("a", "b", "c", "omega"):
                if getattr(self, name) is not None:
                    raise ConfigurationError(
                        f"problem key {name!r} is not allowed for kind 'poisson'")
        if self.omega is not None and self.c is not None:
            raise ConfigurationError("give either c or omega, not both")
        # the field types are checked, so only c = -omega^2 can fail
        try:
            a, _, _ = _coefficients(self)
        except OverflowError:
            raise ConfigurationError(
                "problem coefficients and load must be numbers") from None
        if not np.allclose(a, a.T, atol=1e-14):
            raise ConfigurationError("coefficient a must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs.min() <= 1e-12:
            raise ConfigurationError(
                f"coefficient a is not uniformly positive definite "
                f"(smallest eigenvalue {eigs.min():.3e})")
        if self.manufactured is None:
            if self.f is None:
                raise ConfigurationError(
                    "problem needs either a load f or a manufactured case")
        elif self.f is not None:
            raise ConfigurationError(
                "manufactured problems derive f; do not give it explicitly")
        elif self.manufactured not in _MANUFACTURED:
            raise ConfigurationError(
                f"unknown manufactured case {self.manufactured!r}")
        elif self.manufactured == "poly_bubble" and self.kind != "poisson":
            raise ConfigurationError(
                "manufactured case 'poly_bubble' requires kind 'poisson'")


def _coefficients(spec):
    """The constant coefficients (a, b, c) of a spec, defaults filled in:
    a the identity, b zero, c zero or -omega^2."""
    a = np.eye(2) if spec.a is None else np.asarray(spec.a, dtype=float)
    b = np.zeros(2) if spec.b is None else np.asarray(spec.b, dtype=float)
    if spec.omega is not None:
        c = -float(spec.omega) ** 2
    else:
        c = 0.0 if spec.c is None else float(spec.c)
    return a, b, c


@dataclass(frozen=True)
class Problem:
    """Constant coefficients, the load and an optional exact solution.

    ``a`` is a read-only (2, 2) array, ``b`` a read-only (2,) array and
    ``c`` a float; only the load ``f_fn`` varies in space, vectorized over
    point arrays of shape (n, 2) -> (n,).  With constant coefficients the
    operator maps the discrete space to piecewise P1 fields, which the
    lambda rule of nested PCG relies on (``driver._eta_lipschitz``).
    """

    a: np.ndarray
    b: np.ndarray
    c: float
    f_fn: Callable
    exact: Optional[ExactSolution] = None

    def __post_init__(self):
        for name in ("a", "b"):
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "c", float(self.c))


def _bubble_exact():
    """u = x(1-x) y(1-y) on the unit square, sigma = grad u."""
    def u(p):
        x, y = p[:, 0], p[:, 1]
        return x * (1 - x) * y * (1 - y)

    def grad(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([(1 - 2 * x) * y * (1 - y),
                                x * (1 - x) * (1 - 2 * y)])

    def div_sigma(p):
        x, y = p[:, 0], p[:, 1]
        return -2 * y * (1 - y) - 2 * x * (1 - x)

    return ExactSolution(u=u, grad_u=grad, sigma=grad, div_sigma=div_sigma)


def _sine_exact(a):
    """u = sin(pi x) sin(pi y) with sigma = A grad u for constant A."""
    a = np.asarray(a, dtype=float)

    def u(p):
        return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    def grad(p):
        x, y = p[:, 0], p[:, 1]
        return np.pi * np.column_stack([np.cos(np.pi * x) * np.sin(np.pi * y),
                                        np.sin(np.pi * x) * np.cos(np.pi * y)])

    def sigma(p):
        return grad(p) @ a.T

    def div_sigma(p):
        x, y = p[:, 0], p[:, 1]
        ss = np.sin(np.pi * x) * np.sin(np.pi * y)
        cc = np.cos(np.pi * x) * np.cos(np.pi * y)
        return (-np.pi ** 2 * (a[0, 0] + a[1, 1]) * ss
                + np.pi ** 2 * (a[0, 1] + a[1, 0]) * cc)

    return ExactSolution(u=u, grad_u=grad, sigma=sigma, div_sigma=div_sigma)


def _zero_exact():
    def zeros(p):
        return np.zeros(len(p))

    def zeros2(p):
        return np.zeros((len(p), 2))

    return ExactSolution(u=zeros, grad_u=zeros2, sigma=zeros2, div_sigma=zeros)


def _manufactured_f(exact, b, c):
    """Load consistent with the manufactured solution: f = -div sigma + b.grad u + c u."""
    def f(pts):
        return (-exact.div_sigma(pts) + exact.grad_u(pts) @ b
                + c * exact.u(pts))
    return f


def make_problem(spec):
    """Build the Problem of a ProblemSpec: its coefficients and load.

    The spec checked its values when it was built; a manufactured case is
    self-checked here against the load it derives.
    """
    a, b, c = _coefficients(spec)
    exact = None
    if spec.manufactured is None:
        f = float(spec.f)

        def f_fn(pts):
            return np.full(len(pts), f)
    else:
        if spec.manufactured == "poly_bubble":
            exact = _bubble_exact()
        elif spec.manufactured == "sine":
            exact = _sine_exact(a)
        else:
            exact = _zero_exact()
        f_fn = _manufactured_f(exact, b, c)

    problem = Problem(a=a, b=b, c=c, f_fn=f_fn, exact=exact)
    if exact is not None:
        _check_manufactured(problem)
    return problem


def _check_manufactured(problem, n=100, tol=1e-10, seed=20240517):
    """Self-check: -div sigma + b.grad u + c u reproduces f at random points."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    ex = problem.exact
    lhs = (-ex.div_sigma(pts) + np.sum(problem.b * ex.grad_u(pts), axis=1)
           + problem.c * ex.u(pts))
    f = problem.f_fn(pts)
    scale = max(1.0, float(np.abs(f).max()))
    worst = float(np.abs(lhs - f).max()) / scale
    if worst > tol:
        raise ConfigurationError(
            f"manufactured solution is inconsistent with its load "
            f"(relative defect {worst:.3e})")


def eval_operator(problem, x, state):
    """Apply the first-order operator to one state tuple at one point.

    ``state`` is (u, grad_u, sigma, div_sigma) with grad_u and sigma
    2-vectors.  Returns the three operator components; the coefficients
    are constant, so the point ``x`` does not enter.
    """
    u, grad_u, sigma, div_sigma = state
    grad_u = np.asarray(grad_u, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    scalar = (-float(div_sigma) + float(problem.b @ grad_u)
              + problem.c * float(u))
    vector = problem.a @ grad_u - sigma
    return np.array([scalar, vector[0], vector[1]])


def eval_data(problem, x):
    """The right-hand side F = (f, 0) at one point."""
    pts = np.asarray(x, dtype=float).reshape(1, 2)
    return np.array([float(problem.f_fn(pts)[0]), 0.0, 0.0])
