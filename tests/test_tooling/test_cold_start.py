"""Cold start: a job imports only the code it runs, and every exported
name resolves.

Every package re-exports through one ``repro.lazy_exports`` table, so
``import repro`` imports no submodule and a training job never loads the
simulator, the serving fleet or networkx (each spawned worker re-imports
the same). The import check runs in a fresh interpreter; the resolution
check walks every package's ``__all__``, so a typo in a lazy table fails
here instead of at its first use.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).parent.parent.parent / "src"

PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]

TRAINING_IMPORTS = """
import sys
import repro
print(sorted(m for m in sys.modules if m.startswith("repro.")))
from repro import make_engine, EngineConfig, World, MAEPretrainer, MaskedAutoencoder
import repro.backend.process
print(sorted(m for m in ("networkx", "repro.perf", "repro.hardware", "repro.serve",
                         "repro.experiments", "repro.eval") if m in sys.modules))
"""


def test_a_training_job_imports_only_what_it_runs():
    proc = subprocess.run(
        [sys.executable, "-c", TRAINING_IMPORTS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_training_imports = proc.stdout.splitlines()
    assert after_import == "[]"
    assert after_training_imports == "[]"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= set(dir(module))
