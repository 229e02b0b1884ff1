"""Smoke tests for the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import functools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402
from cutlearn import oracle, search  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "pigeonhole": w.Workload(
        "pigeonhole",
        False,
        functools.partial(w.pigeonhole_proofs, copies=((3, 1), (4, 1))),
    ),
    "twophase": w.Workload(
        "twophase", True, functools.partial(w.twophase, integer=2, mixed=1)
    ),
}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pigeonhole_infeasible_iff_more_pigeons(p):
    assert oracle.oracle_optimum(w.pigeonhole(p + 1, p)).status == "infeasible"
    assert oracle.oracle_optimum(w.pigeonhole(p, p)).status == "optimal"
    assert search.solve(w.pigeonhole(p + 1, p)).status == "infeasible"
    assert search.solve(w.pigeonhole(p, p)).status == "optimal"


def test_pigeonhole_is_deterministic():
    assert w.pigeonhole(4, 3) == w.pigeonhole(4, 3)
    assert w.pigeonhole_proofs() == w.pigeonhole_proofs()


def test_seed_draws_the_call_order_of_the_same_instances():
    def labels(seed):
        return [i.label for i in w.build_instances(TINY["twophase"], seed)]

    assert labels(1) == labels(1)
    orders = {tuple(labels(seed)) for seed in range(5)}
    assert len(orders) > 1
    assert len({tuple(sorted(order)) for order in orders}) == 1


def _run(monkeypatch, capsys, tmp_path, name, trace):
    monkeypatch.setitem(w.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    ) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, tmp_path, name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(monkeypatch, capsys, tmp_path, name, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for v in result["metrics"].values():
            assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_pass_counts_match_untraced(name):
    workload = TINY[name]
    instances = w.build_instances(workload, 5)
    report = run.Report(name)
    untraced = run.run_pass(w, workload, instances, report)
    tracer = spans.Tracer()
    with tracer.hooked():
        traced = run.run_pass(w, workload, instances, report, tracer)
    assert tracer.absent == []
    assert report.consistent and not any(untraced.failed)
    assert traced.fingerprint == untraced.fingerprint
    assert traced.nodes == untraced.nodes
    layers = spans.layer_metrics(tracer.spans, 0, len(tracer.spans), run.ROOT_SPANS)
    assert layers["conflict.graph_fallback.calls"] == untraced.fallbacks
    assert layers["propagation.conflicts.total"] > 0
    outcomes = sum(layers[f"conflict.analyze.{o}"] for o in spans.ANALYSIS_OUTCOMES)
    assert outcomes == layers["conflict.analyze.calls"]


def test_hooks_are_restored_after_tracing():
    before = {(m, p): spans._resolve(m, p) for _, m, p in spans.HOOKS}
    originals = {k: getattr(*v) for k, v in before.items()}
    with spans.Tracer().hooked():
        assert search.propagate_fixpoint is not originals[
            ("cutlearn.search", "propagate_fixpoint")
        ]
    for (m, p), target in before.items():
        assert getattr(*target) is originals[(m, p)]


def test_wrapper_returns_the_wrapped_result_and_exception():
    tracer = spans.Tracer()
    sentinel = object()
    assert tracer.wrap("x.y", lambda a, b=1: sentinel)(1, b=2) is sentinel
    error = KeyError("boom")

    def raises():
        raise error

    with pytest.raises(KeyError) as info:
        tracer.wrap("x.z", raises)()
    assert info.value is error
    assert [s.name for s in tracer.spans] == ["x.y", "x.z"]
    assert tracer.spans[1].info == {"raised": "KeyError"}


def test_absent_hook_is_reported_not_fatal():
    tracer = spans.Tracer()
    hooks = spans.HOOKS + (("x.gone", "cutlearn.search", "no_such_function"),)
    with tracer.hooked(hooks):
        search.solve(w.pigeonhole(3, 2))
    assert tracer.absent == ["cutlearn.search.no_such_function"]
    layers = spans.layer_metrics(tracer.spans, 0, len(tracer.spans), run.ROOT_SPANS)
    assert layers["propagation.fixpoint.calls"] > 0


def test_child_time_is_subtracted_from_self_time():
    s = spans.Span
    trace = [
        s("search.solve", 0, 100, -1, 0, None),
        s("conflict.analyze", 10, 60, 0, 0, {"outcome": "learned", "iterations": 2}),
        s("conflict.is_asserting", 20, 50, 1, 0, None),
    ]
    layers = spans.layer_metrics(trace, 0, 3, run.ROOT_SPANS)
    assert layers["search.self_s"] == pytest.approx(50e-9)
    assert layers["conflict.analyze.self_s"] == pytest.approx(20e-9)
    assert layers["conflict.is_asserting.s"] == pytest.approx(30e-9)
    assert layers["conflict.analyze.learned"] == 1
    assert layers["conflict.analyze.iterations"] == 2


def test_exits_nonzero_without_solver_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "twophase", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
