"""Toy-size smoke test of the benchmark.

Every workload runs at minimal corpus size, untraced and traced, and must
report exactly the metrics BENCHMARK.json names, with their units.  A
planted wrong decoded token must be counted as a failed unit, and a traced
function that no longer exists must be reported absent.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import sys
import types
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads as W  # noqa: E402

TINY = {
    "train-sinitic": replace(W.WORKLOADS["train-sinitic"], n_sets=40),
    "train-romance": replace(W.WORKLOADS["train-romance"], n_sets=20),
    "evaluate": replace(W.WORKLOADS["evaluate"], n_sets=30),
}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _result(report):
    units = dict(run.END_TO_END) | dict(tracing.PER_LAYER)
    return json.loads(run.result_line(report, units))


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(name, trace, tmp_path):
    originals = (W.T.train, W.T.Model.loss_batch, W.T.adam_step, W.B.nw_align)
    dtype = W.E.default_dtype()
    report = run.measure(name, 0, 0.0, bool(trace), str(tmp_path), workload=TINY[name])
    assert (W.T.train, W.T.Model.loss_batch, W.T.adam_step, W.B.nw_align) == originals
    assert W.E.default_dtype() is dtype
    result = _result(report)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.absent_spans"]["value"] == 0
        assert report["counters_repeat"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_wrong_token_counts_as_failed(tmp_path, monkeypatch):
    decode = W.T.greedy_decode
    calls = []

    def decode_with_planted_error(model, examples, max_len, *args, **kwargs):
        words = decode(model, examples, max_len, *args, **kwargs)
        calls.append(model)
        if len(calls) % len(TINY["evaluate"].model_seeds) == 1:   # first model of each op
            first = list(words[0])
            first[0] = next(t for t in reversed(model.vocab.target_tokens) if t != first[0])
            words[0] = tuple(first)
        return words

    monkeypatch.setattr(W.T, "greedy_decode", decode_with_planted_error)
    report = run.measure("evaluate", 0, 0.0, False, str(tmp_path), workload=TINY["evaluate"])
    result = _result(report)
    reps = len(report["repetitions"])
    assert result["correct"] is False
    assert result["failed"] == reps   # one planted token in each repetition
    assert report["error_rate"] == reps / result["attempted"]


def test_missing_function_is_reported_absent():
    owner = types.ModuleType("refactored")
    owner.kept = lambda: 1
    tracer = tracing.Tracer()
    tracer.install([(owner, "removed", "x.removed", None), (owner, "kept", "x.kept", None)])
    tracer.on = True
    assert owner.kept() == 1 and len(tracer) == 1
    tracer.uninstall()
    assert tracer.absent == ["x.removed (refactored.removed)"]
    assert owner.kept.__name__ == "<lambda>" and not hasattr(owner.kept, "__wrapped__")
