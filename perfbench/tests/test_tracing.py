import json
from pathlib import Path

import pytest

import child
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
    ]
    calls, own = tracing.self_times(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert own == {"a": 5.0, "b": 4.0, "c": 1.0}
    assert sum(own.values()) == 10.0  # self times partition the root span


def test_tracer_links_nested_calls_and_counts_extras():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x * 2, "site-inner",
                        lambda args, kwargs, result: {"out": result})
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x + 1), "site-outer")
    assert outer(3) == 14
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    totals = tracer.layer_totals()
    assert totals["outer.calls"] == 1 and totals["inner.calls"] == 2
    assert totals["inner.out"] == 14
    assert totals["outer.self_s"] + totals["inner.self_s"] == 5.0  # ticks 0..5
    assert tracer.site_calls == {"site-outer": 1, "site-inner": 2}


def test_install_patches_every_namespace_and_uninstall_restores():
    from deletion_lab import oblivious, oracles, words, online

    original = words.is_subsequence
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (words, oblivious, oracles):
            assert mod.is_subsequence is not original
            assert mod.is_subsequence.__wrapped__ is original
        # the lazy `from .words import is_subsequence` resolves to the patch
        decode = online.make_first_superstring_decoder([words.Word("0110")])
        assert decode(words.Word("01")) == words.Word("0110")
        assert tracer.site_calls["words.is_subsequence"] == 1
    finally:
        tracer.uninstall()
    for mod in (words, oblivious, oracles):
        assert mod.is_subsequence is original


def test_layer_metrics_cover_every_spec():
    names = [name for name, _, _ in tracing.layer_metric_specs()]
    assert len(names) == len(set(names))
    metrics = tracing.layer_metrics([{"words.is_subsequence.calls": 4,
                                      "words.is_subsequence.hits": 1}], 2.0, [3.0])
    assert list(metrics) == names
    assert metrics["words.is_subsequence.hit_frac"] == 0.25
    assert metrics["trace.overhead_frac"] == 0.5


def test_benchmark_json_lists_the_published_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.layer_metric_specs()


def _traced_call(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    argv = workload.prepare(tmp_path, 1)
    assert child.main(["result.json", "--spans", "spans.tsv", "--", *argv]) == 0
    return workload, json.loads((tmp_path / "result.json").read_text())


@pytest.mark.parametrize("name", ["oblivious-errors", "online-waitpush"])
def test_every_wrap_site_receives_calls(name, tmp_path, monkeypatch, capsys):
    workload, record = _traced_call(name, tmp_path, monkeypatch)
    assert record["status"] == 0
    for site in workload.traced_sites:
        assert record["sites"].get(site, 0) > 0, site
    layers = record["layers"]
    self_times = {k: v for k, v in layers.items() if k.endswith(".self_s")}
    if name == "oblivious-errors":
        assert record["sites"]["oblivious.is_subsequence"] > 0
        assert max(self_times, key=self_times.get) == "words.is_subsequence.self_s"
    else:
        per_trial = layers["online.transmit.calls"] / layers["online.simulate_online.trials"]
        assert 0.5 * 256 < per_trial <= 256
