"""The reachability lint: only what a program names lives in ``src/``.

Wires ``tools/lint.py``'s ``reachability`` rule into tier-1 (the library
tree passes) and pins what counts as a program on fixture trees: another
module, a non-test file under ``examples/`` / ``benchmarks/`` /
``tools/``, or a ``[project.scripts]`` entry. A test, an ``__all__``
list or a ``lazy_exports`` table does not.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent.parent
TOOL = REPO / "tools" / "lint.py"
SRC = REPO / "src" / "repro"

MOD = '''"""A module."""

__all__ = ["used", "orphan"]


def used():
    return 1


def orphan():
    return orphan()


def _private():
    return 2
'''


def _lint():
    spec = importlib.util.spec_from_file_location("lint", TOOL)
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    return lint


def _repo(tmp_path: Path, **files: str) -> Path:
    """A fixture repo: ``pkg/mod.py`` defines ``used`` (named by
    ``pkg/other.py``) and ``orphan`` (named by a test, an ``__all__`` and
    a lazy table only); ``files`` maps extra relative paths to text."""
    root = tmp_path / "repo"
    tree = {
        "src/repro/__init__.py": 'lazy_exports(__name__, {"pkg.mod": ("orphan",)})\n',
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/mod.py": MOD,
        "src/repro/pkg/other.py": "from repro.pkg.mod import used\n",
        "tests/test_mod.py": "from repro.pkg.mod import orphan\n",
        **files,
    }
    for rel, text in tree.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root / "src" / "repro"


def _check(root: Path, allowlist: dict[str, str] | None = None) -> list[str]:
    lint = _lint()
    return lint.check_reachability(lint.Tree(root), allowlist or {})


def test_library_tree_is_reachable():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "reachability", "--root", str(SRC)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_allowlist_holds_at_most_two_reasoned_entries():
    allowlist = _lint().REACHABILITY_ALLOWLIST
    assert set(allowlist) <= {"elastic/preemption.py::PreemptionHandler"}
    assert all(reason.strip() for reason in allowlist.values())


def test_a_definition_only_tests_name_fails_with_path_and_line(tmp_path):
    root = _repo(tmp_path)
    (hit,) = _check(root)
    assert hit.startswith("pkg/mod.py:10: public 'orphan'")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "reachability", "--root", str(root)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "pkg/mod.py:10: public 'orphan'" in proc.stderr
    assert "'used'" not in proc.stderr and "_private" not in proc.stderr


@pytest.mark.parametrize(
    "rel, text",
    [
        ("examples/demo.py", "from repro.pkg.mod import orphan\norphan()\n"),
        ("benchmarks/bench_x.py", "import repro.pkg.mod as m\nm.orphan()\n"),
        ("benchmarks/e2e/run.py", "from repro.pkg import mod\nmod.orphan()\n"),
        ("tools/tool.py", 'TABLE = {"x": ("mod", "orphan")}\n'),
        ("pyproject.toml", '[project.scripts]\nrepro-x = "repro.pkg.mod:orphan"\n'),
    ],
)
def test_a_program_outside_src_reaches_a_definition(tmp_path, rel, text):
    assert _check(_repo(tmp_path, **{rel: text})) == []


@pytest.mark.parametrize(
    "rel, text",
    [
        ("benchmarks/e2e/test_e2e.py", "from repro.pkg.mod import orphan\n"),
        ("benchmarks/conftest.py", "from repro.pkg.mod import orphan\n"),
        ("src/repro/pkg/__init__.py", '__all__ = ["orphan"]\n'),
        ("pyproject.toml", '[project]\nname = "orphan"\n'),
    ],
)
def test_tests_tables_and_metadata_do_not_reach(tmp_path, rel, text):
    (hit,) = _check(_repo(tmp_path, **{rel: text}))
    assert "'orphan'" in hit


def test_an_allowlisted_definition_passes(tmp_path):
    root = _repo(tmp_path)
    assert _check(root, {"pkg/mod.py::orphan": "its caller is on the roadmap"}) == []


@pytest.mark.parametrize(
    "allowlist, message",
    [
        ({"pkg/mod.py::orphan": "  "}, "pkg/mod.py:10: reachability allowlist entry for 'orphan' gives no reason"),
        ({"pkg/mod.py::gone": "was here"}, "pkg/mod.py:1: reachability allowlist names 'gone'"),
        ({"pkg/mod.py::used": "a reason"}, "pkg/mod.py:6: 'used' is allowlisted but a program"),
    ],
)
def test_a_bad_allowlist_entry_fails(tmp_path, allowlist, message):
    hits = _check(_repo(tmp_path), {"pkg/mod.py::orphan": "kept", **allowlist})
    assert len(hits) == 1 and hits[0].startswith(message), hits
