import pytest

from lsfem import AdaptiveConfig, MarkingSpec, StopSpec, run_adaptive
from lsfem.problems import ProblemSpec

from tracing import (TARGETS, Recorder, Span, layer_metrics, level_table,
                     self_times, target_owner)


def span(name, start, end, parent=None, level=None, **attrs):
    return Span(name=name, start=start, end=end, parent=parent, run="r",
                level=level, attrs=attrs)


def test_self_time_subtracts_children_at_every_depth():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 4.0, parent=0),
             span("a.inner", 2.0, 3.0, parent=1),
             span("b", 5.0, 7.0, parent=0)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 6.0, parent=0),
             span("b", 4.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_metrics_split_pcg_and_its_estimator_calls():
    spans = [span("driver.run_adaptive", 0.0, 10.0),
             span("solver.pcg_run", 1.0, 5.0, parent=0, level=0,
                  iterations=3, stop_reason="increment_criterion"),
             span("estimator.compute_indicators", 2.0, 3.0, parent=1, level=0),
             span("estimator.compute_indicators", 6.0, 6.5, parent=0, level=0),
             span("assembly.SparseSpd.factor", 7.0, 8.0, parent=0, level=0,
                  built=True)]
    m = layer_metrics(spans)
    assert m["solver.pcg_self_s"] == pytest.approx(3.0)
    assert m["estimator.indicators_in_pcg_s"] == pytest.approx(1.0)
    assert m["estimator.indicators_s"] == pytest.approx(1.5)
    assert m["estimator.indicators_calls"] == 2
    assert m["driver.self_s"] == pytest.approx(10.0 - 4.0 - 0.5 - 1.0)
    assert m["assembly.factors_built"] == 1
    assert m["assembly.factor_use_ratio"] == 0.0
    assert m["solver.pcg_max_iter_stops"] == 0


def _attributes():
    found = []
    for module_name, attr, _ in TARGETS:
        owner, leaf = target_owner(module_name, attr)
        found.append(owner.__dict__[leaf])
    return found


def test_install_wraps_every_target_and_restores_the_originals():
    before = _attributes()
    recorder = Recorder("r")
    with recorder.installed():
        during = _attributes()
        assert all(d is not b and d.__wrapped__ is b
                   for d, b in zip(during, before))
    assert all(a is b for a, b in zip(_attributes(), before))


def test_install_restores_the_originals_after_an_error():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Recorder("r").installed():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_attributes(), before))


def test_traced_exact_loop_has_one_level_per_history_row():
    config = AdaptiveConfig(domain="l_shape",
                            problem=ProblemSpec(kind="poisson", f=1.0),
                            marking=MarkingSpec(strategy="doerfler", theta=0.5),
                            stop=StopSpec(max_ndof=300))
    recorder = Recorder("r")
    with recorder.installed():
        history = run_adaptive(config)
    m = layer_metrics(recorder.spans)
    table = level_table(recorder.spans)
    assert [row["n_dofs"] for row in table] == [r.n_dofs for r in history.rows]
    assert m["assembly.factors_built"] == history.n_levels
    assert m["assembly.factor_use_ratio"] == 1.0
    assert m["spaces.prolongate_s"] == 0
    assert m["mesh.refine_calls"] == history.n_levels - 1
    assert m["mesh.bisections"] == (history.rows[-1].n_elements
                                    - history.rows[0].n_elements)
    assert all(row["prolongate"] == 0 for row in table)
