"""Tests of the benchmark's own logic: span arithmetic, wrapping, the
compare rule and the output checks.  Run with

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import threading
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer, self_times, wrap_function  # noqa: E402


def _span(sid, start, end, parent=None, tid=1, name="x", **attrs):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "tid": tid, "attrs": attrs}


def test_self_time_of_nested_spans():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, parent=1),
             _span(3, 2.0, 3.0, parent=2), _span(4, 5.0, 6.0, parent=1)]
    got = self_times(spans)
    assert got == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_thread_children_once():
    # two worker threads busy at once under one parent: the union of their
    # intervals, 1..8, is subtracted, not the sum of their lengths
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 6.0, parent=1, tid=2),
             _span(3, 4.0, 8.0, parent=1, tid=3)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(1, 0.0, 2.0), _span(2, 1.0, 5.0, parent=1, tid=2)]
    assert self_times(spans) == pytest.approx({1: 1.0, 2: 4.0})


def test_spans_handed_to_threads_keep_their_parent():
    tracer = Tracer()
    outer = tracer.start("outer")

    def work():
        inner = tracer.start("inner", parent=outer["id"])
        leaf = tracer.start("leaf")
        tracer.end(leaf)
        tracer.end(inner)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.end(outer)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    inner_ids = {s["id"] for s in by_name["inner"]}
    assert all(s["parent"] == outer["id"] for s in by_name["inner"])
    assert {s["parent"] for s in by_name["leaf"]} == inner_ids
    assert all(v >= 0.0 for v in self_times(tracer.spans).values())


def test_wrap_function_replaces_by_name_imports(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    core.square = lambda x: x * x
    user.square = core.square          # as after "from .core import square"
    user.call = lambda x: user.square(x)
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    wrap_function(tracer, core, "square", "core.square",
                  attrs=lambda a, k, r: {"n": a[0]}, package="fakepkg")
    assert user.call(3) == 9 and core.square(2) == 4
    assert [s["attrs"]["n"] for s in tracer.spans] == [3, 2]


def test_span_view_bootstrap_and_parallel_efficiency():
    spans = [
        _span(1, 0.0, 10.0, name="mixing.tv_profile", n_k=4),
        _span(2, 0.0, 6.0, parent=1, name="mixing.walk_histograms"),
        _span(3, 0.0, 6.0, parent=2, name="walks.map_blocks", workers=2),
        _span(4, 0.0, 6.0, parent=3, tid=2, name="walks.block"),
        _span(5, 0.0, 3.0, parent=3, tid=3, name="walks.block"),
    ]
    view = layers.SpanView(spans)
    assert view.bootstrap_s_per_k() == pytest.approx(1.0)
    assert view.parallel_efficiency() == pytest.approx(9.0 / 12.0)


def test_trace_overhead_leaves_out_the_memory_replay():
    spans = [_span(1, 0.0, 5.0, name="modular.enum_build"),
             _span(2, 6.0, 9.0, name=layers.REPLAY),
             _span(3, 6.0, 9.0, parent=2, name="modular.enum_build_memory")]
    assert layers.trace_overhead_s(10.0, 6.5, spans) == pytest.approx(0.5)


def test_every_layer_metric_name_is_well_formed():
    names = [n for n, _ in layers.layer_metric_names()]
    assert len(names) == len(set(names))
    assert all(len(n) <= 64 and n[0].isalnum() for n in names)


@pytest.mark.parametrize("parent, change, bound, expected", [
    # clear win: every pair won, gap far above the parent's spread
    ([10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.1],
     [8.0, 8.1, 7.9, 8.2, 8.0, 7.8, 8.1, 8.0, 7.9, 8.1], 0.1, "better"),
    # tie: the same samples in another order
    ([10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.1],
     [10.1, 10.0, 10.0, 9.9, 10.2, 10.1, 9.8, 9.9, 10.0, 10.1], 0.1,
     "no change"),
    # the parent's own spread is wider than the bound
    ([7.0, 13.0, 8.0, 12.0, 10.0, 9.0, 11.0, 7.5, 12.5, 10.0],
     [7.5, 12.0, 8.5, 11.0, 9.5, 9.5, 10.5, 8.0, 12.0, 10.5], 0.1,
     "unresolved"),
    # slower by 20% against a 10% bound
    ([10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.1],
     [12.0, 12.1, 11.9, 12.2, 12.0, 11.8, 12.1, 12.0, 11.9, 12.1], 0.1,
     "worse"),
])
def test_compare_rule(parent, change, bound, expected):
    assert compare.verdict(parent, change, bound) == expected


def test_compare_rule_for_higher_is_better():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
              99.9]
    change = [x * 1.3 for x in parent]
    assert compare.verdict(parent, change, 0.1, lower_is_better=False) \
        == "better"
    assert compare.verdict(change, parent, 0.1, lower_is_better=False) \
        == "worse"


def test_scaling_to_the_reference_cancels_a_uniform_slowdown():
    bench = compare.bench
    raw = {"wall_s": 6.0, "setup_s": 1.0, "cpu_s": 7.0, "peak_rss_mb": 120.0}
    refs = [bench.REFERENCE_S] * 3
    slow = {k: v * (1.3 if k in bench.SCALED else 1.0)
            for k, v in raw.items()}
    usual = bench.scale_to_reference(raw, refs)
    scaled = bench.scale_to_reference(slow, [r * 1.3 for r in refs])
    for name, unit in bench.END_TO_END:
        assert usual[name] == {"value": raw[name], "unit": unit}
        assert scaled[name]["value"] == pytest.approx(raw[name])


def test_every_workload_has_one_reason_in_benchmark_json():
    assert list(compare.bench.WHY) == list(compare.bench.WORKLOADS)


def test_table_refuses_result_sets_from_different_setups():
    meta = {k: 1 for k in compare.bench.SETUP_KEYS}
    a = {"meta": meta, "runs": {}}
    b = {"meta": dict(meta, nproc=8), "runs": {}}
    with pytest.raises(SystemExit, match="nproc"):
        compare.table(a, b, {})


def _write_csv(path, body_rows, stamp):
    with open(path, "w") as fh:
        fh.write(f"# wall_time_s = {stamp}\n")
        fh.write("k,tv,ci_lo,ci_hi\n")
        fh.writelines(row + "\n" for row in body_rows)


def test_digest_check_flags_a_one_byte_change(tmp_path):
    rows = ["0,1.5,1.4,1.6", "1,0.25,0.2,0.3"]
    _write_csv(tmp_path / "tv.csv", rows, 1.0)
    table = {"tv_cutoff": {"tv": checks.step_digests(str(tmp_path))}}
    assert checks.check_step("tv_cutoff", "tv", str(tmp_path), table) == []
    # a new header timestamp is outside the contract
    _write_csv(tmp_path / "tv.csv", rows, 2.0)
    assert checks.check_step("tv_cutoff", "tv", str(tmp_path), table) == []
    # one byte of the body changes: 0.25 -> 0.26
    _write_csv(tmp_path / "tv.csv", [rows[0], "1,0.26,0.2,0.3"], 2.0)
    assert checks.check_step("tv_cutoff", "tv", str(tmp_path), table) == [
        "tv.csv differs from its recorded digest"]


def test_invariants_apply_at_any_seed(tmp_path):
    _write_csv(tmp_path / "tv.csv", ["0,2.5,1.4,1.6"], 1.0)
    problems = checks.check_step("tv_cutoff", "tv", str(tmp_path), None)
    assert len(problems) == 1 and "out of range" in problems[0]
    _write_csv(tmp_path / "tv.csv", ["0,1.5,1.7,1.6"], 1.0)
    assert checks.check_step("tv_cutoff", "tv", str(tmp_path), None)


def test_json_digest_ignores_meta(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"a": 1, "meta": {"wall_time_s": 1.0}}')
    first = checks.artifact_digest(str(path))
    path.write_text('{"a": 1, "meta": {"wall_time_s": 2.0}}')
    assert checks.artifact_digest(str(path)) == first
    path.write_text('{"a": 2, "meta": {"wall_time_s": 2.0}}')
    assert checks.artifact_digest(str(path)) != first


@pytest.mark.parametrize("printed, problems", [
    ("t=4.0 mass=1.000000000 defect=2.22e-16\n", 0),
    ("t=4.0 mass=1.000000000 defect=3e-06\n", 1),
    ("t=4.0 mass=1.000000000\n", 1),
])
def test_heat_check_reads_the_defect_before_normalization(tmp_path, printed,
                                                         problems):
    # heat.csv is normalized whatever the defect; only the output line
    # carries it
    (tmp_path / "heat.csv").write_text("r,density,envelope\n0.5,2.0,1.0\n")
    (tmp_path / "stdout.txt").write_text(printed)
    assert len(checks.check_step("halfplane", "heat", str(tmp_path),
                                 None)) == problems
