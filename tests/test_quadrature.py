import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lsfem
from lsfem import quadrature_rule
from lsfem.quadrature import MAX_ORDER


def monomial_integral(a, b):
    # int over the reference triangle of x^a y^b = a! b! / (a+b+2)!
    return (math.factorial(a) * math.factorial(b)
            / math.factorial(a + b + 2))


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_monomials_integrated_exactly(order):
    rule = quadrature_rule(order)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(order + 1):
        for b in range(order + 1 - a):
            approx = 0.5 * float(rule.weights @ (x ** a * y ** b))
            assert abs(approx - monomial_integral(a, b)) < 1e-14, \
                f"order {order}, monomial x^{a} y^{b}"


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_weights_positive_normalized_points_inside(order):
    rule = quadrature_rule(order)
    assert rule.weights.min() > 0
    assert np.isclose(rule.weights.sum(), 1.0, atol=1e-14)
    assert rule.points.min() >= 0.0
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert rule.exactness_degree >= order


def test_order_two_is_edge_midpoint_rule():
    rule = quadrature_rule(2)
    midpoints = {(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)}
    assert {tuple(p) for p in rule.points} == midpoints
    np.testing.assert_array_equal(rule.weights, np.full(3, 1 / 3))


def test_reference_second_moment():
    rule = quadrature_rule(4)
    x2 = 0.5 * float(rule.weights @ rule.points[:, 1] ** 2)
    assert abs(x2 - 1 / 12) < 1e-15


@pytest.mark.parametrize("order", [0, 11, -2, 2.5, "4", None])
def test_invalid_orders_rejected(order):
    with pytest.raises(ValueError):
        quadrature_rule(order)


def test_rules_cached_and_frozen():
    rule = quadrature_rule(4)
    assert quadrature_rule(4) is rule
    with pytest.raises(ValueError):
        rule.points[0, 0] = 0.0


def test_import_leaves_scipy_special_unloaded():
    """Only the rules above the tabulated orders use ``roots_jacobi``, so
    starting the command line does not pay for ``scipy.special``."""
    src = str(pathlib.Path(lsfem.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, lsfem.cli; "
            "assert lsfem.__file__.startswith(sys.argv[1]), lsfem.__file__; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
