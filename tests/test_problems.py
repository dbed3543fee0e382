import numpy as np
import pytest

from lsfem import ConfigurationError, make_problem
from lsfem.problems import ProblemSpec, eval_data, eval_operator

MID = np.array([[0.5, 0.5]])
NAN, INF = float("nan"), float("inf")


def test_poly_bubble_load_oracle():
    prob = make_problem(ProblemSpec(kind="poisson",
                                    manufactured="poly_bubble"))
    # f = -lap(x(1-x)y(1-y)) = 2y(1-y) + 2x(1-x); center value 1
    assert np.isclose(prob.f_fn(MID)[0], 1.0)
    assert np.isclose(prob.exact.u(MID)[0], 0.0625)
    pts = np.array([[0.25, 0.75], [0.1, 0.2]])
    np.testing.assert_allclose(prob.exact.u(pts),
                               pts[:, 0] * (1 - pts[:, 0])
                               * pts[:, 1] * (1 - pts[:, 1]))
    # for the poisson reformulation sigma is the gradient
    np.testing.assert_allclose(prob.exact.sigma(pts), prob.exact.grad_u(pts))


def test_helmholtz_load_oracle():
    prob = make_problem(ProblemSpec(kind="general", manufactured="sine",
                                    c=-9.0))
    # f = (2 pi^2 - 9) sin(pi x) sin(pi y)
    assert np.isclose(prob.f_fn(MID)[0], 2 * np.pi ** 2 - 9.0)
    assert prob.c == -9.0


@pytest.mark.parametrize("spec", [
    ProblemSpec(kind="poisson", manufactured="poly_bubble"),
    ProblemSpec(kind="general", manufactured="sine",
                a=[[2.0, 0.5], [0.5, 1.0]], b=[0.5, -0.25], c=2.0),
    ProblemSpec(kind="general", manufactured="zero",
                a=[[3.0, 1.0], [1.0, 2.0]], b=[1.0, 1.0]),
], ids=["poly_bubble", "sine", "zero"])
def test_sine_divergence_matches_finite_differences(spec):
    """Each manufactured solution is consistent in itself: grad_u is the
    gradient of u, div_sigma the divergence of sigma (central differences),
    and sigma = a grad_u."""
    prob = make_problem(spec)
    exact = prob.exact
    pts = np.random.default_rng(11).uniform(0.1, 0.9, size=(40, 2))
    h = 1e-6
    div = np.zeros(len(pts))
    for d, step in enumerate(h * np.eye(2)):
        du = (exact.u(pts + step) - exact.u(pts - step)) / (2 * h)
        np.testing.assert_allclose(exact.grad_u(pts)[:, d], du,
                                   rtol=0, atol=1e-6)
        div += (exact.sigma(pts + step)[:, d]
                - exact.sigma(pts - step)[:, d]) / (2 * h)
    np.testing.assert_allclose(exact.div_sigma(pts), div, rtol=0, atol=1e-6)
    np.testing.assert_allclose(exact.sigma(pts), exact.grad_u(pts) @ prob.a.T,
                               rtol=0, atol=1e-12)


def test_manufactured_consistency_all_cases():
    """Each built-in case builds, and the zero solution has a zero load."""
    make_problem(ProblemSpec(kind="poisson", manufactured="poly_bubble"))
    make_problem(ProblemSpec(kind="general", manufactured="sine",
                             a=[[3.0, 1.0], [1.0, 2.0]], b=[0.5, -0.25],
                             c=2.0))
    zero = make_problem(ProblemSpec(kind="general", manufactured="zero",
                                    b=[1.0, 1.0]))
    assert np.allclose(zero.f_fn(MID), 0.0)


def test_constant_load():
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    pts = np.zeros((4, 2))
    np.testing.assert_array_equal(prob.f_fn(pts), np.ones(4))
    assert prob.exact is None


def test_coefficient_defaults_general():
    prob = make_problem(ProblemSpec(kind="general", f=2.5))
    np.testing.assert_array_equal(prob.a, np.eye(2))
    np.testing.assert_array_equal(prob.b, np.zeros(2))
    assert prob.c == 0.0


def test_problem_coefficients_are_read_only():
    prob = make_problem(ProblemSpec(kind="general", f=1.0,
                                    a=[[2.0, 0.5], [0.5, 1.0]], b=[1.0, 0.0]))
    with pytest.raises(ValueError):
        prob.a[0, 0] = 5.0
    with pytest.raises(ValueError):
        prob.b[0] = 5.0
    assert prob.a[0, 0] == 2.0 and prob.b[0] == 1.0


@pytest.mark.parametrize("bad", [
    {"kind": "poisson", "f": 1.0, "a": [[1, 0], [0, 1]]},
    {"kind": "general", "f": 1.0, "c": "-9"},
    {"kind": "poisson", "f": 1.0, "c": 1.0},
    {"kind": "poisson", "f": 1.0, "b": [0, 0]},
    {"kind": "general", "f": 1.0, "a": [[1, 0], [0, 0]]},       # singular
    {"kind": "general", "f": 1.0, "a": [[1, 2], [0, 1]]},       # asymmetric
    {"kind": "general", "f": 1.0, "a": [[1, 2], [2, 1]]},       # indefinite
    {"kind": "general", "f": 1.0, "a": [1, 0, 0, 1]},           # bad shape
    {"kind": "general", "f": 1.0, "b": [1, 2, 3]},
    {"kind": "stokes", "f": 1.0},
    {"kind": "poisson"},                                        # no load
    {"kind": "poisson", "manufactured": "poly_bubble", "f": 1.0},
    {"kind": "poisson", "manufactured": "mystery"},
    {"kind": "general", "manufactured": "poly_bubble", "f": None},
    {"kind": "poisson", "f": "one"},
    {"kind": "general", "f": NAN, "a": [[1, 0], [0, 1]]},
    {"kind": "general", "f": 1.0, "c": NAN},
    {"kind": "general", "f": 1.0, "a": [[1, 0], [0, INF]]},
    {"kind": "general", "f": 1.0, "c": -INF},
    {"kind": "general", "f": 1.0, "b": [1, [2]]},               # ragged
])
def test_invalid_specs_rejected(bad):
    """A spec checks its values when it is built, wherever it comes from."""
    with pytest.raises(ConfigurationError):
        ProblemSpec(**bad)


def test_eval_operator_poisson_components():
    prob = make_problem(ProblemSpec(kind="poisson", f=1.0))
    state = (0.7, np.array([1.0, 2.0]), np.array([0.25, -1.0]), 3.0)
    val = eval_operator(prob, [0.4, 0.4], state)
    # (-div sigma, grad u - sigma)
    np.testing.assert_allclose(val, [-3.0, 0.75, 3.0])


def test_eval_operator_general_components():
    prob = make_problem(ProblemSpec(kind="general", f=1.0,
                                    a=[[2.0, 0.0], [0.0, 1.0]],
                                    b=[1.0, -1.0], c=4.0))
    state = (0.5, np.array([1.0, 2.0]), np.array([0.0, 0.0]), 1.0)
    val = eval_operator(prob, [0.4, 0.4], state)
    # scalar: -1 + (1*1 - 1*2) + 4*0.5 = 0;  vector: A grad u = (2, 2)
    np.testing.assert_allclose(val, [0.0, 2.0, 2.0])


def test_eval_data_is_load_and_zero():
    prob = make_problem(ProblemSpec(kind="poisson", f=2.0))
    val = eval_data(prob, [0.1, 0.9])
    np.testing.assert_array_equal(val, [2.0, 0.0, 0.0])
