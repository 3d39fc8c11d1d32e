"""The telemetry-name lint: every emitted name is documented, and the
linter actually bites.

Wires ``tools/lint.py``'s ``telemetry_names`` rule into tier-1: every
counter/gauge/span name emitted under ``src/repro`` — every namespace,
not only ``serve.*`` — must appear in DESIGN.md, and the checker must
catch a planted undocumented name (self-test against silent-pass
regressions). The rule reads the DESIGN.md two levels above its root
(the repo's, for ``src/repro``), so planted packages sit under
``tmp_path/src``.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent.parent
TOOL = REPO / "tools" / "lint.py"
SRC = REPO / "src" / "repro"


def _run(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "telemetry_names", "--root", str(root)],
        capture_output=True,
        text=True,
    )


def _planted_pkg(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "serve"
    pkg.mkdir(parents=True)
    return pkg


def test_every_emitted_serve_metric_is_documented():
    proc = _run(SRC)
    assert proc.returncode == 0, proc.stderr


def test_linter_catches_a_planted_undocumented_metric(tmp_path):
    pkg = _planted_pkg(tmp_path)
    (pkg / "mod.py").write_text(
        "def f(bus):\n"
        '    bus.counter("serve.bogus_counter", 1)\n'
        '    bus.gauge("serve.queue_depth", 0)\n'
        '    with bus.span("worker.bogus_span", rank=0):\n'
        "        pass\n"
    )
    design = tmp_path / "DESIGN.md"
    design.write_text("Documented: `serve.queue_depth`.\n")
    proc = _run(pkg)
    assert proc.returncode == 1
    assert "serve.bogus_counter" in proc.stderr
    assert "worker.bogus_span" in proc.stderr
    assert "serve.queue_depth" not in proc.stderr


def test_linter_ignores_dynamic_names_and_non_emits(tmp_path):
    pkg = _planted_pkg(tmp_path)
    (pkg / "mod.py").write_text(
        "def f(bus, name):\n"
        "    bus.counter(name, 1)\n"  # dynamic: not collectable
        '    helper("serve.not_an_emit")\n'  # not a bus method
    )
    design = tmp_path / "DESIGN.md"
    design.write_text("nothing documented\n")
    proc = _run(pkg)
    assert proc.returncode == 0, proc.stderr


def test_linter_checks_fstring_names_by_their_literal_parts(tmp_path):
    pkg = _planted_pkg(tmp_path)
    (pkg / "mod.py").write_text(
        "def f(bus, op, kind):\n"
        '    with bus.span(f"comm.{op}", bytes=1.0):\n'
        "        pass\n"
        '    bus.counter(f"serve.bogus_{kind}", 1)\n'
        '    bus.gauge(f"{kind}.queue_depth", 0)\n'  # no literal prefix: ignored
    )
    design = tmp_path / "DESIGN.md"
    design.write_text("Documented: `comm.<op>` spans.\n")
    proc = _run(pkg)
    assert proc.returncode == 1
    assert "serve.bogus_<kind>" in proc.stderr
    assert "comm." not in proc.stderr
    assert "queue_depth" not in proc.stderr


def test_missing_inputs_are_usage_errors(tmp_path):
    assert _run(tmp_path / "missing").returncode == 2
    pkg = _planted_pkg(tmp_path)
    (pkg / "mod.py").write_text('def f(bus):\n    bus.counter("serve.x", 1)\n')
    assert _run(pkg).returncode == 2  # no DESIGN.md above it


def test_serving_emits_exactly_its_eighteen_documented_names():
    """Moving the verdict counters into the ledger must neither lose a
    name nor hide one from the linter behind a dynamic argument."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("lint", TOOL)
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    names = {
        name
        for py in sorted((SRC / "serve").rglob("*.py"))
        for name, _ in lint.emitted_names(ast.parse(py.read_text(encoding="utf-8")))
    }
    assert names == {
        "serve.autoscale_backlog",
        "serve.autoscale_p99_ms",
        "serve.batch",
        "serve.batch_size",
        "serve.cache_hit",
        "serve.cache_miss",
        "serve.desired_replicas",
        "serve.infer",
        "serve.queue_depth",
        "serve.rejected",
        "serve.replica_fault",
        "serve.replicas",
        "serve.requeued",
        "serve.scale_down",
        "serve.scale_up",
        "serve.served",
        "serve.submitted",
        "serve.timeout",
    }
