"""``check_regression.py``: one table of artifacts, per-name ``--update``,
and no wall-clock number diffed against a committed one."""

import importlib.util
from pathlib import Path

import pytest

CHECK = Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_regression", CHECK)
    cr = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cr)
    return cr


def test_named_update_blesses_only_that_artifact(tmp_path, monkeypatch):
    cr = _load()
    table = {}
    for name in ("serving", "meshperf"):
        fresh, baseline = tmp_path / f"{name}.json", tmp_path / f"{name}.baseline.json"
        fresh.write_text(f'"fresh {name}"')
        baseline.write_text('"old"')
        table[name] = cr.ARTIFACTS[name]._replace(fresh=fresh, baseline=baseline)
    monkeypatch.setattr(cr, "ARTIFACTS", table)
    assert cr.main(["--update", "meshperf"]) == 0
    assert table["meshperf"].baseline.read_text() == '"fresh meshperf"'
    assert table["serving"].baseline.read_text() == '"old"'
    # Bare --update blesses nothing: argparse wants at least one name.
    with pytest.raises(SystemExit):
        cr.main(["--update"])
    assert table["serving"].baseline.read_text() == '"old"'


def test_every_artifact_is_one_row_and_none_is_required(tmp_path, monkeypatch, capsys):
    cr = _load()
    assert list(cr.ARTIFACTS) == ["serving", "multicore", "elastic", "meshperf"]
    for art in cr.ARTIFACTS.values():
        assert art.fresh.parent == CHECK.parent and callable(art.compare)
    # With no fresh artifact anywhere the gate names each producer and
    # passes: nothing was measured, so nothing regressed.
    absent = {
        name: art._replace(fresh=tmp_path / f"{name}.json")
        for name, art in cr.ARTIFACTS.items()
    }
    monkeypatch.setattr(cr, "ARTIFACTS", absent)
    assert cr.main([]) == 0
    out = capsys.readouterr().out
    for name, art in absent.items():
        assert f"{name}: no fresh artifact; skipping (run {art.producer} first)" in out


def test_serving_virtual_time_blocks_must_equal_the_baseline():
    cr = _load()
    baseline = {
        "gate": {"threshold": 0.9, "saturation_ratio": 1.07},
        "throughput": {"serving_images_per_s": 2876.5},
        "latency": {"1": {"p50_ms": 0.16, "p99_ms": 0.22}, "utilization": 0.7},
        "cache": {"hits": 224, "misses": 16},
        "open_loop": {"slo_s": 0.25},
    }
    # Another host: a third of the wall-clock throughput, same schedule.
    slower = {**baseline, "throughput": {"serving_images_per_s": 900.0}}
    assert cr.compare_serving(slower, baseline) == []
    assert "virtual-time blocks equal" in cr.render_serving(slower, baseline)
    moved = {**baseline, "latency": {"1": {"p50_ms": 0.16, "p99_ms": 0.23}, "utilization": 0.7}}
    (problem,) = cr.compare_serving(moved, baseline)
    assert "'latency' block differs" in problem and problem.endswith("at 1")
    assert "DIFFER: latency" in cr.render_serving(moved, baseline)
    assert len(cr.compare_serving({**baseline, "cache": {}}, baseline)) == 1
    # The machine-relative gate still reads the fresh artifact's own block.
    starved = {**baseline, "gate": {"threshold": 0.9, "saturation_ratio": 0.8}}
    (problem,) = cr.compare_serving(starved, baseline)
    assert "0.800x" in problem


def test_multicore_gate_reads_the_wall_clock_and_skips_one_cpu_hosts():
    cr = _load()
    gate = {"workers": 4, "floor": 1.2, "speedup_wall": 0.85, "bit_identical": True}
    fresh = {"host": {"cpu_count": 2}, "gate": gate}
    (problem,) = cr.compare_multicore(fresh, {})
    assert "0.85x" in problem and "1.2x floor" in problem
    assert cr.compare_multicore({**fresh, "gate": {**gate, "speedup_wall": 1.5}}, {}) == []
    one_cpu = {**fresh, "host": {"cpu_count": 1}}
    assert cr.compare_multicore(one_cpu, {}) == []
    assert "speedup gate skipped: 1 CPU" in cr.render_multicore(one_cpu, {})
    # Bit-identity is not a host property: it gates on any host.
    broken = {**one_cpu, "gate": {**gate, "bit_identical": False}}
    assert len(cr.compare_multicore(broken, {})) == 1
