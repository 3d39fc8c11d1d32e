"""``check_regression.py --update NAME`` blesses only the named artifact."""

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
    paths = {}
    for name in ("serving", "meshperf"):
        fresh, baseline = tmp_path / f"{name}.json", tmp_path / f"{name}.baseline.json"
        fresh.write_text(f'"fresh {name}"')
        baseline.write_text('"old"')
        paths[name] = (fresh, baseline, f"bench_{name}.py")
    monkeypatch.setattr(cr, "OPTIONAL_ARTIFACTS", paths)
    monkeypatch.setattr(cr, "FRESH", tmp_path / "absent_hotpath.json")
    assert cr.main(["--update", "meshperf"]) == 0
    assert paths["meshperf"][1].read_text() == '"fresh meshperf"'
    assert paths["serving"][1].read_text() == '"old"'
    # Bare --update blesses nothing: argparse wants at least one name.
    with pytest.raises(SystemExit):
        cr.main(["--update"])
    assert paths["serving"][1].read_text() == '"old"'


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
