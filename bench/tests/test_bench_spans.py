"""Tests for the benchmark's span recorder and trace reducer."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from spans import SpanTable  # noqa: E402


def _grid_attrs(sigma, heights):
    pts = sigma + 1j * np.asarray(heights, dtype=float)
    t = np.abs(pts.imag)
    return {"points": pts.size, "sum_t": float(np.maximum(t, 1.0).sum()),
            "max_t": float(t.max()), "sigma_max": float(pts.real.max()), "pts": pts}


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 4), (1, 2), (3, 6), (7, 8)]) == 7.0


def test_self_time_nested_children():
    tab = SpanTable.from_rows([
        ("harness.pass", 0.0, 10.0, -1, -1, 0),
        ("cli.run", 1.0, 4.0, 0, 0, 0),
        ("zeta_core.zeta_grid", 2.0, 3.0, 1, 0, 0),
        ("cli.run", 5.0, 6.0, 0, 1, 0),
    ])
    own = spans.self_times(tab)
    assert own.tolist() == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_overlapping_children_count_once():
    # two pool workers under one scan, overlapping in [3, 5]
    tab = SpanTable.from_rows([
        ("shift_search.scan_disk_hits", 0.0, 10.0, -1, 0, 0),
        ("zeta_core.zeta_grid", 1.0, 5.0, 0, 0, 1),
        ("zeta_core.zeta_grid", 3.0, 8.0, 0, 0, 2),
        ("zeta_core.zeta_grid", 9.0, 12.0, 0, 0, 1),  # clipped to the parent
    ])
    own = spans.self_times(tab)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)
    cover = spans.layer_coverage(tab)
    assert cover["shift_search"] + cover["zeta_core"] == pytest.approx(10.0)


def test_pool_spans_attributed_to_submitting_experiment():
    rec = spans.Recorder()
    scan = rec.name_id("shift_search.scan_disk_hits")
    grid = rec.name_id("zeta_core.zeta_grid")

    def work(_):
        i = rec.open(grid)
        rec.close(i)

    rec.current_op = 7
    with rec.span("harness.op", experiment="hits"):
        outer = rec.open(scan)
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(6)))
        rec.close(outer)
    tab = rec.table()
    labels = tab.labels()
    workers = [i for i, n in enumerate(labels) if n == "zeta_core.zeta_grid"]
    assert len(workers) == 6
    assert all(int(tab.parent[i]) == outer for i in workers)
    assert all(int(tab.op[i]) == 7 for i in workers)
    main = int(tab.thread[outer])
    assert all(int(tab.thread[i]) != main for i in workers)


def test_ratio_metrics_from_known_spans():
    rows = [
        ("harness.op", 0.0, 10.0, -1, 0, 0),                        # 0
        ("cli.run", 0.5, 10.0, 0, 0, 0),                            # 1
        ("shift_search.left_half_flip", 1.0, 9.0, 1, 0, 0),         # 2
        ("zeta_core.zeta_grid", 1.0, 4.0, 2, 0, 1),                 # 3 mirrored, worker 1
        ("zeta_core.zeta_grid", 2.0, 5.0, 2, 0, 2),                 # 4 mirrored, worker 2
        ("zeta_core.zeta_grid", 6.0, 6.5, 2, 0, 0),                 # 5 confirmation
        ("zeta_core.zeta_grid", 7.0, 7.5, 2, 0, 0),                 # 6 confirmation
        ("zeta_core.hardy_z", 9.2, 9.6, 1, 0, 0),                   # 7 scalar
        ("zeta_core.zeta", 9.3, 9.5, 7, 0, 0),                      # 8 nested scalar
    ]
    attrs = {
        2: {"N": 4, "predicted": 2, "confirmed": 1},
        3: _grid_attrs(0.7, [1000.0, 1001.0]),
        4: _grid_attrs(0.7, [3000.0, 3001.0, 3002.0]),
        5: _grid_attrs(0.3, [1000.0, 1001.0]),
        6: _grid_attrs(0.3, [1001.0, 1002.0]),
        0: {"experiment": "flip"},
    }
    tab = SpanTable.from_rows(rows, attrs, {"zeta_core.zeta_grid": 12.5})
    m = spans.reduce_spans(tab)
    assert m["zeta_core.zeta_grid.calls"] == 4
    assert m["zeta_core.zeta_grid.points"] == 9
    assert m["zeta_core.zeta_grid.points_per_call"] == pytest.approx(9 / 4)
    busy = 3.0 + 3.0 + 0.5 + 0.5
    assert m["zeta_core.zeta_grid.busy_s"] == pytest.approx(busy)
    assert m["zeta_core.zeta_grid.parallelism"] == pytest.approx(busy / (4.0 + 0.5 + 0.5))
    sum_t = 2001.0 + 9003.0 + 2001.0 + 2003.0
    assert m["zeta_core.zeta_grid.ns_per_point_t"] == pytest.approx(1e9 * busy / sum_t)
    assert m["zeta_core.zeta_grid.us_per_point.t_lt_2e3"] == pytest.approx(1e6 * 4.0 / 6)
    assert m["zeta_core.zeta_grid.us_per_point.t_2e3_1.5e4"] == pytest.approx(1e6 * 3.0 / 3)
    assert m["zeta_core.zeta_grid.us_per_point.t_ge_1.5e4"] == 0.0
    assert m["zeta_core.zeta_grid.peak_alloc_mb"] == 12.5
    assert m["zeta_core.scalar.calls"] == 1
    assert m["zeta_core.scalar.busy_s"] == pytest.approx(0.4)
    assert m["shift_search.shifts"] == 4
    assert m["shift_search.points_per_shift"] == pytest.approx(9 / 4)
    # (0.3, 1001) is evaluated twice
    assert m["shift_search.unique_point_ratio"] == pytest.approx(8 / 9)
    assert m["shift_search.flip.confirm_calls"] == 2
    assert m["shift_search.flip.confirm_s"] == pytest.approx(9.0 - 6.0)
    assert m["shift_search.flip.confirm_ratio"] == pytest.approx(0.5)
    # the flip span minus the union of its children: [1, 5], [6, 6.5], [7, 7.5]
    assert m["shift_search.self_s"] == pytest.approx(8.0 - 5.0)
    assert m["cli.self_s"] == pytest.approx(9.5 - 8.0 - 0.4)
    assert m["trace.unattributed_share"] == pytest.approx(0.5 / 10.0)
    counts = spans.invariant_counts(tab, m)
    assert counts["zeta_grid.points"] == 5  # confirmations left out
    cover = spans.layer_coverage(tab)
    assert sum(cover.values()) == pytest.approx(10.0)


def test_empty_layers_report_zero():
    tab = SpanTable.from_rows([("harness.op", 0.0, 1.0, -1, 0, 0)], {0: {"experiment": "x"}})
    m = spans.reduce_spans(tab)
    assert m["zeta_core.zeta_grid.points_per_call"] == 0.0
    assert m["shift_search.unique_point_ratio"] == 0.0
    assert m["trace.unattributed_share"] == 1.0


def test_wrappers_record_and_restore():
    zetalab = pytest.importorskip("zetalab")
    import zetalab.cli  # noqa: F401

    rec = spans.Recorder()
    original = zetalab.zeta_core.zeta_grid
    inst = spans.Instrumentation(zetalab, rec)
    try:
        zetalab.zeta_core.zeta_grid(np.array([2.0 + 10.0j, 2.0 + 11.0j]))
        zetalab.zeta_core.hardy_z(20.0)
    finally:
        inst.remove()
    assert zetalab.zeta_core.zeta_grid is original
    tab = rec.table()
    m = spans.reduce_spans(tab)
    assert m["zeta_core.zeta_grid.points"] == 2
    assert m["zeta_core.scalar.calls"] == 1  # zeta and theta nest inside hardy_z


def test_invariance_check_fails_loudly(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    base = {"zeta_grid.points": 10, "zeta_grid.sum_t": 100.0, "shift_search.shifts": 5}
    run.check_invariance("w", [(1, base), (2, dict(base, **{"zeta_grid.sum_t": 105.0}))])
    with pytest.raises(run.BenchFailure):
        run.check_invariance("w", [(3, dict(base, **{"shift_search.shifts": 6}))])
    with pytest.raises(run.BenchFailure):
        run.check_invariance("w", [(1, dict(base, **{"zeta_grid.sum_t": 101.0}))])


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"line-scan", "beatty-swap", "low-height"}
