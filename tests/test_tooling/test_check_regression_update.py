"""``check_regression.py --update NAME`` blesses only the named artifact."""

import importlib.util
from pathlib import Path

CHECK = Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"


def test_named_update_blesses_only_that_artifact(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("check_regression", CHECK)
    cr = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cr)
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
    # Bare --update still wants every artifact, the required hotpath first.
    assert cr.main(["--update"]) == 2
    assert "absent_hotpath.json" in capsys.readouterr().out
    assert paths["serving"][1].read_text() == '"old"'
