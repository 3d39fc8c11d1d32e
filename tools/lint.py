"""The repo's static rules, run in one walk over ``src/repro``.

Every ``*.py`` under the root is parsed once; each rule of :data:`RULES`
then sees the trees in its scope. The rules, and why each exists:

``no_print``
    No bare ``print()`` in library code: importable modules publish
    through the telemetry bus or ``logging``; CLIs route through their
    own echo helpers.
``dtype``
    ``np.empty`` / ``zeros`` / ``ones`` / ``full`` in the hot-path
    packages (:data:`HOT_PACKAGES`) spell out ``dtype=``: the float64
    default must be an explicit choice, or flipping the compute dtype
    silently upcasts every kernel an implicit buffer touches. ``*_like``
    constructors inherit their prototype's dtype and are exempt.
``fork_safety``
    The tree must stay safe under the spawn-based process backend.
    Everywhere: process creation goes through ``get_context("spawn")``
    (``fork`` duplicates BLAS state, thread pools and shared-memory
    handles, and is Linux's default), and no ``time.sleep`` (worker
    loops block on pipes; a sleep is a poll loop or a papered-over
    race). In :data:`HOT_PATH_DIRS`: no module-level container mutated
    from a function body — spawn replicas re-import and then diverge
    (:data:`MUTABLE_WHITELIST` holds the justified exceptions).
``group_discipline``
    ``Group(...)`` is constructed only under ``mesh/`` and in
    ``comm/world.py`` (:data:`ALLOWED_GROUP_SITES`); a group built
    elsewhere bypasses the named-axis books, so its traffic is invisible
    to per-axis telemetry and the elastic layout checks.
``facade``
    Every name in ``repro.__all__`` resolves on the imported package and
    every public one is mentioned in README.md.
``telemetry_names``
    Every string-literal name passed to ``counter`` / ``gauge`` /
    ``span`` / ``record_span`` appears verbatim in DESIGN.md: a metric CI
    gates on but the design never mentions is an undocumented contract.
    (Dynamically built names cannot be collected and are ignored.)
``elastic_state``
    Every top-level string key an engine / trainer ``state_dict``
    returns (:data:`ENGINE_FILES`, :data:`TRAINER_FILES`) is enumerated
    in ``elastic/reshard.py``'s ``ENGINE_STATE_KEYS`` /
    ``TRAINER_STATE_KEYS``; an unmapped field would load in a same-shape
    world and vanish on the first resize. A listed file that is missing
    or defines no ``state_dict`` is a violation, not a pass.

README.md and DESIGN.md are looked up two levels above the root (the
repo, for ``src/repro``).

Usage::

    python tools/lint.py [RULE ...] [--root DIR]

No RULE runs them all. Exits 0 when clean, 1 with one
``path:line: message`` per violation (paths relative to the root), 2 on
a usage error (unknown rule or flag, bad root, missing document).
Wired into tier-1 via ``tests/test_tooling/``.
"""

from __future__ import annotations

import ast
import sys
from functools import cached_property
from pathlib import Path

HOT_PACKAGES = ("models", "optim", "core", "precision", "comm", "backend", "mesh")
HOT_PATH_DIRS = ("core", "comm", "models", "backend")
MUTABLE_WHITELIST = frozenset(
    {
        # The shm segment registry is *meant* to be per-process: each
        # process sweeps exactly the segments it created or attached.
        ("backend/shm.py", "_LIVE_SEGMENTS"),
    }
)
ALLOWED_GROUP_SITES = ("mesh/", "comm/world.py")
#: Every engine inherits the one ``EngineCore.state_dict``; a subclass
#: that extends it adds its file here.
ENGINE_FILES = ("core/engine_core.py",)
TRAINER_FILES = ("core/trainer.py",)
RESHARD_FILE = "elastic/reshard.py"

ALLOC_CALLS = frozenset({"empty", "zeros", "ones", "full"})
PROCESS_FACTORIES = frozenset({"Process", "Pool"})
MUTATING_METHODS = frozenset(
    "append extend insert add update setdefault pop popitem remove discard clear "
    "sort appendleft".split()
)
EMIT_METHODS = frozenset({"counter", "gauge", "span", "record_span"})

Hits = list[tuple[int, str]]


class UsageError(Exception):
    """Bad invocation or a missing input: exit status 2."""


class Tree:
    """The parsed tree under ``root`` plus the documents rules read."""

    def __init__(self, root: Path):
        if not root.is_dir():
            raise UsageError(f"not a directory: {root}")
        self.root = root
        self.trees = {
            py.relative_to(root).as_posix(): ast.parse(
                py.read_text(encoding="utf-8"), filename=str(py)
            )
            for py in sorted(root.rglob("*.py"))
        }

    def _document(self, name: str) -> str:
        path = self.root.parent.parent / name
        if not path.is_file():
            raise UsageError(f"not a file: {path}")
        return path.read_text(encoding="utf-8")

    @cached_property
    def design(self) -> str:
        return self._document("DESIGN.md")


def _calls(tree: ast.AST):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def _is_attr_of(func: ast.expr, owners) -> bool:
    """``owner.attr`` with ``owner`` a bare name in ``owners``."""
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in owners
    )


# -- no_print ------------------------------------------------------------------


def check_no_print(tree: ast.Module, rel: str, ctx: Tree) -> Hits:
    return [
        (node.lineno, "bare print() in library code (use the telemetry bus or logging)")
        for node in _calls(tree)
        if isinstance(node.func, ast.Name) and node.func.id == "print"
    ]


# -- dtype ---------------------------------------------------------------------


def check_dtype(tree: ast.Module, rel: str, ctx: Tree) -> Hits:
    hits: Hits = []
    if rel.split("/", 1)[0] not in HOT_PACKAGES:
        return hits
    for node in _calls(tree):
        func = node.func
        if not (_is_attr_of(func, ("np", "numpy")) and func.attr in ALLOC_CALLS):
            continue
        # dtype may also be positional: np.zeros(shape, dtype),
        # np.full(shape, fill, dtype).
        dtype_pos = 2 if func.attr == "full" else 1
        if any(kw.arg == "dtype" for kw in node.keywords) or len(node.args) > dtype_pos:
            continue
        hits.append(
            (
                node.lineno,
                f"np.{func.attr}(...) without dtype= on the hot path (the "
                "float64 default must be an explicit choice)",
            )
        )
    return hits


# -- fork_safety ---------------------------------------------------------------


def _check_spawn(tree: ast.Module) -> Hits:
    hits = []
    for node in _calls(tree):
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if _is_attr_of(func, ("multiprocessing", "mp")) and func.attr in PROCESS_FACTORIES:
            hits.append(
                (
                    node.lineno,
                    f"multiprocessing.{func.attr} without an explicit start "
                    "method (use get_context('spawn'))",
                )
            )
        elif _is_attr_of(func, ("os",)) and func.attr == "fork":
            hits.append((node.lineno, "os.fork() in library code"))
        elif func.attr in ("get_context", "set_start_method"):
            first = node.args[0] if node.args else None
            method = first.value if isinstance(first, ast.Constant) else None
            if method != "spawn":
                hits.append(
                    (
                        node.lineno,
                        f"{func.attr}({method!r}) — only the explicit 'spawn' "
                        "start method is fork-safe here",
                    )
                )
    return hits


def _check_sleeps(tree: ast.Module) -> Hits:
    return [
        (node.lineno, "time.sleep() in library code (block on a pipe/event instead)")
        for node in _calls(tree)
        if _is_attr_of(node.func, ("time",)) and node.func.attr == "sleep"
    ]


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"dict", "list", "set", "defaultdict", "deque"}
    return False


def _module_assignments(tree: ast.Module):
    """``(targets, value, lineno)`` of each module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield node.targets, node.value, node.lineno
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield [node.target], node.value, node.lineno


def _function_locals(fn: ast.AST) -> set[str]:
    """Names the function binds locally (plain assignment, args, for)."""
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    local = {a.arg for a in named + [a for a in (args.vararg, args.kwarg) if a]}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            local.difference_update(node.names)
    return local


def _check_module_state(tree: ast.Module, rel: str) -> Hits:
    mutables = {
        t.id: lineno
        for targets, value, lineno in _module_assignments(tree)
        if _is_mutable_literal(value)
        for t in targets
        if isinstance(t, ast.Name)
    }
    hits: Hits = []
    if not mutables:
        return hits
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        suspects = set(mutables) - _function_locals(fn)
        for node in ast.walk(fn):
            name = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if (
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id in suspects
                    ):
                        name = t.value.id
            elif (
                isinstance(node, ast.Call)
                and _is_attr_of(node.func, suspects)
                and node.func.attr in MUTATING_METHODS
            ):
                name = node.func.value.id
            if name is not None and (rel, name) not in MUTABLE_WHITELIST:
                hits.append(
                    (
                        node.lineno,
                        f"module-level '{name}' (defined at line {mutables[name]}) "
                        "mutated post-import — spawn replicas will silently diverge",
                    )
                )
    return hits


def check_fork_safety(tree: ast.Module, rel: str, ctx: Tree) -> Hits:
    hits = _check_spawn(tree) + _check_sleeps(tree)
    if rel.split("/", 1)[0] in HOT_PATH_DIRS:
        hits += _check_module_state(tree, rel)
    return hits


# -- group_discipline ----------------------------------------------------------


def check_group_discipline(tree: ast.Module, rel: str, ctx: Tree) -> Hits:
    return [
        (
            node.lineno,
            "Group(...) constructed outside repro.mesh / repro.comm.world — "
            "build groups through DeviceMesh.groups()/World.new_group() so "
            "their traffic stays on the named-axis books",
        )
        for node in _calls(tree)
        if not rel.startswith(ALLOWED_GROUP_SITES)
        and "Group" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


# -- facade --------------------------------------------------------------------


def check_facade(ctx: Tree) -> list[str]:
    src_dir = ctx.root.parent
    sys.path.insert(0, str(src_dir))
    try:
        import repro
    except Exception as err:  # pragma: no cover - import should never fail
        return [f"__init__.py:1: import repro failed: {err!r}"]
    finally:
        sys.path.remove(str(src_dir))
    readme = ctx._document("README.md")
    violations = []
    for name in repro.__all__:
        if not hasattr(repro, name):
            violations.append(
                f"__init__.py:1: __all__ lists {name!r} but the package has "
                "no such attribute"
            )
        elif not (name.startswith("__") and name.endswith("__")) and name not in readme:
            violations.append(
                f"__init__.py:1: public name {name!r} is not mentioned in "
                "README.md — document it in the API tour or drop it from __all__"
            )
    return violations


# -- telemetry_names -----------------------------------------------------------


def emitted_names(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, lineno)`` of every string-literal telemetry emission."""
    return [
        (node.args[0].value, node.args[0].lineno)
        for node in _calls(tree)
        if node.args
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in EMIT_METHODS
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


def check_telemetry_names(tree: ast.Module, rel: str, ctx: Tree) -> Hits:
    return [
        (lineno, f"telemetry name {name!r} is emitted but not documented in DESIGN.md")
        for name, lineno in emitted_names(tree)
        if name not in ctx.design
    ]


# -- elastic_state -------------------------------------------------------------


def _frozenset_literal(tree: ast.Module, name: str) -> frozenset[str]:
    """String members of the module-level ``name = frozenset({...})``."""
    for targets, value, lineno in _module_assignments(tree):
        if not any(isinstance(t, ast.Name) and t.id == name for t in targets):
            continue
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "frozenset"
            and value.args
            and isinstance(value.args[0], (ast.Set, ast.List, ast.Tuple))
            and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in value.args[0].elts
            )
        ):
            return frozenset(e.value for e in value.args[0].elts)
        raise SystemExit(
            f"{RESHARD_FILE}:{lineno}: {name} must be a frozenset literal of strings"
        )
    raise SystemExit(f"{RESHARD_FILE}: no {name} frozenset found")


def _str_keys(d: ast.Dict) -> list[tuple[str, int]]:
    return [
        (k.value, k.lineno)
        for k in d.keys
        if isinstance(k, ast.Constant) and isinstance(k.value, str)
    ]


def _state_dict_keys(fn: ast.FunctionDef) -> list[tuple[str, int]]:
    """``(key, lineno)`` of the top-level dicts a ``state_dict`` returns:
    ``return {...}`` directly, or ``sd = {...}; sd["k"] = v; return sd``
    (subscript-stores onto any local that is eventually returned count)."""
    keys: list[tuple[str, int]] = []
    returned: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            keys += _str_keys(node.value)
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            returned.add(node.value.id)
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for t in node.targets:
            if isinstance(t, ast.Name) and t.id in returned and isinstance(node.value, ast.Dict):
                keys += _str_keys(node.value)
            elif (
                isinstance(t, ast.Subscript)
                and getattr(t.value, "id", None) in returned
                and isinstance(t.slice, ast.Constant)
                and isinstance(t.slice.value, str)
            ):
                keys.append((t.slice.value, node.lineno))
    return keys


def check_elastic_state(ctx: Tree) -> list[str]:
    if RESHARD_FILE not in ctx.trees:
        raise UsageError(f"not a file: {ctx.root / RESHARD_FILE}")
    violations = []
    for files, setname in ((ENGINE_FILES, "ENGINE_STATE_KEYS"), (TRAINER_FILES, "TRAINER_STATE_KEYS")):
        allowed = _frozenset_literal(ctx.trees[RESHARD_FILE], setname)
        for rel in files:
            fns = [
                node
                for node in ast.walk(ctx.trees.get(rel, ast.Module([], [])))
                if isinstance(node, ast.FunctionDef) and node.name == "state_dict"
            ]
            if not fns:
                violations.append(
                    f"{rel}:1: listed as a state_dict file but defines none "
                    "(missing, or the method moved: update tools/lint.py)"
                )
            violations += [
                f"{rel}:{lineno}: state_dict key {key!r} is not in "
                f"repro.elastic.reshard.{setname} — add a reshard mapping for "
                "it or it will be lost on the first elastic resize"
                for fn in fns
                for key, lineno in _state_dict_keys(fn)
                if key not in allowed
            ]
    return violations


# -- the runner ----------------------------------------------------------------


#: ``name -> (scope, check)``. A ``"file"`` rule's check sees every
#: parsed file in turn (``check(tree, rel, ctx)``; it narrows its own
#: scope by ``rel``) and returns ``(lineno, message)`` hits; a ``"tree"``
#: rule's runs once (``check(ctx)``) and returns finished
#: ``path:line: message`` lines.
RULES = {
    "no_print": ("file", check_no_print),
    "dtype": ("file", check_dtype),
    "fork_safety": ("file", check_fork_safety),
    "group_discipline": ("file", check_group_discipline),
    "facade": ("tree", check_facade),
    "telemetry_names": ("file", check_telemetry_names),
    "elastic_state": ("tree", check_elastic_state),
}


def run(ctx: Tree, names: list[str]) -> list[str]:
    """Violation lines of the named rules over ``ctx``."""
    violations = []
    for name in names:
        scope, check = RULES[name]
        if scope == "tree":
            violations += check(ctx)
            continue
        for rel, tree in ctx.trees.items():
            violations += [f"{rel}:{line}: {msg}" for line, msg in check(tree, rel, ctx)]
    return violations


def main(argv: list[str]) -> int:
    """CLI entry point; returns the process exit code."""
    root = Path(__file__).parent.parent / "src" / "repro"
    names = []
    args = iter(argv)
    try:
        for arg in args:
            if arg == "--root":
                value = next(args, None)
                if value is None:
                    raise UsageError("--root needs a directory")
                root = Path(value)
            elif arg in RULES:
                names.append(arg)
            else:
                raise UsageError(f"unknown rule or flag {arg!r}; rules: {', '.join(RULES)}")
        violations = run(Tree(root), names or list(RULES))
    except UsageError as err:
        sys.stderr.write(f"{err}\n")
        return 2
    for v in violations:
        sys.stderr.write(v + "\n")
    if violations:
        sys.stderr.write(f"{len(violations)} violation(s) found\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
