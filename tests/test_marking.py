import numpy as np
import pytest

from lsfem import (ConfigurationError, MarkingSpec, doerfler_bruteforce,
                   mark, verify_marking_axiom)

ETA = np.array([3.0, 2.0, 1.0])


def test_maximum_strategy_oracle():
    # threshold 0.5 * 3 = 1.5 keeps indicators 3 and 2
    marked = mark(MarkingSpec("maximum", 0.5), ETA)
    np.testing.assert_array_equal(marked, [0, 1])
    np.testing.assert_array_equal(mark(MarkingSpec("maximum", 1.0), ETA), [0])


def test_equilibration_strategy_oracle():
    # mean square is 14/3; only 9 >= 14/3 at theta = 1
    marked = mark(MarkingSpec("equilibration", 1.0), ETA)
    np.testing.assert_array_equal(marked, [0])
    # theta = 0.5 lowers the threshold to 7/3, admitting 4 as well
    marked = mark(MarkingSpec("equilibration", 0.5), ETA)
    np.testing.assert_array_equal(marked, [0, 1])


def test_doerfler_strategy_oracle():
    # squares 9, 4, 1 (total 14); theta=0.5 needs 7, one element suffices
    np.testing.assert_array_equal(mark(MarkingSpec("doerfler", 0.5), ETA),
                                  [0])
    # theta=0.93 needs 13.02 > 13, so all three are taken
    np.testing.assert_array_equal(mark(MarkingSpec("doerfler", 0.93), ETA),
                                  [0, 1, 2])
    np.testing.assert_array_equal(mark(MarkingSpec("doerfler", 1.0), ETA),
                                  [0, 1, 2])


def test_doerfler_tie_break_ascending_index():
    eta = np.array([1.0, 2.0, 2.0, 2.0])
    marked = mark(MarkingSpec("doerfler", 0.4), eta)
    # 0.4 * 13 = 5.2 needs two of the squares-4 entries; lowest indices win
    np.testing.assert_array_equal(marked, [1, 2])


def test_uniform_marks_everything():
    np.testing.assert_array_equal(mark(MarkingSpec("uniform", 0.5), ETA),
                                  [0, 1, 2])


def test_all_zero_marks_element_zero():
    zeros = np.zeros(6)
    for strategy in ("maximum", "equilibration", "doerfler"):
        np.testing.assert_array_equal(mark(MarkingSpec(strategy, 0.5), zeros),
                                      [0])


def test_marked_sets_sorted_and_unique():
    rng = np.random.default_rng(2)
    for _ in range(50):
        eta = rng.random(rng.integers(1, 40))
        for strategy in ("maximum", "equilibration", "doerfler"):
            marked = mark(MarkingSpec(strategy, float(rng.uniform(0.05, 1.0))),
                          eta)
            assert marked.size > 0
            assert np.all(np.diff(marked) > 0)


def test_axiom_holds_across_strategies():
    rng = np.random.default_rng(90)
    for _ in range(200):
        eta = rng.random(rng.integers(1, 60)) ** 2
        theta = float(rng.uniform(0.05, 1.0))
        for strategy in ("maximum", "equilibration", "doerfler", "uniform"):
            marked = mark(MarkingSpec(strategy, theta), eta)
            assert verify_marking_axiom(eta, marked)


def test_axiom_checker_rejects_bad_sets():
    assert not verify_marking_axiom(ETA, [])
    assert not verify_marking_axiom(ETA, [2])      # unmarked 3 > marked 1
    assert verify_marking_axiom(ETA, [0])
    assert verify_marking_axiom(ETA, [0, 1, 2])
    # a mask, floats or a wrapped index is not a marked set; the mask
    # [True, False, True] read as indices 1, 0, 1 would pass the check
    for bad, message in (([True, False, True], "integer element indices"),
                         (np.ones(3, dtype=bool), "integer element indices"),
                         ([0.0], "integer element indices"),
                         ([3], "out of range"), ([-3], "out of range")):
        with pytest.raises(ValueError, match=message):
            verify_marking_axiom(ETA, bad)
    with pytest.raises(ValueError, match="integer element indices"):
        verify_marking_axiom([1, 5, 2], [True, False, True])


def test_doerfler_bulk_criterion_and_minimality():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        eta = rng.random(n)
        if rng.random() < 0.1:
            eta[rng.integers(n)] = 0.0
        theta = float(rng.uniform(0.05, 1.0))
        marked = mark(MarkingSpec("doerfler", theta), eta)
        total = np.sum(eta ** 2)
        got = np.sum(eta[marked] ** 2)
        assert got >= theta * total - 1e-12 * max(total, 1.0)
        reference = doerfler_bruteforce(eta, theta)
        assert marked.size == reference.size
        np.testing.assert_array_equal(marked, np.sort(reference))


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        doerfler_bruteforce(np.ones(21), 0.5)


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.0001, 2.0])
def test_invalid_theta_rejected(theta):
    with pytest.raises(ConfigurationError):
        MarkingSpec("doerfler", theta)


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigurationError):
        MarkingSpec("largest_first", 0.5)


@pytest.mark.parametrize("bad", [np.array([]), np.array([1.0, -2.0]),
                                 np.array([np.nan, 1.0]),
                                 np.array([[1.0, 2.0]])])
def test_invalid_indicator_vectors_rejected(bad):
    with pytest.raises(ValueError):
        mark(MarkingSpec("doerfler", 0.5), bad)
