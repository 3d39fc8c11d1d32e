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
    An f-string name with a literal prefix is checked by its literal
    parts: ``f"comm.{op}"`` needs a ``comm.<...>`` form in DESIGN.md.
    (Names built any other way cannot be collected and are ignored.)
``elastic_state``
    Every top-level string key an engine / trainer ``state_dict``
    returns (:data:`ENGINE_FILES`, :data:`TRAINER_FILES`) is enumerated
    in ``elastic/reshard.py``'s ``ENGINE_STATE_KEYS`` /
    ``TRAINER_STATE_KEYS``; an unmapped field would load in a same-shape
    world and vanish on the first resize. A listed file that is missing
    or defines no ``state_dict`` is a violation, not a pass.
``reachability``
    Every public top-level ``def`` / ``class`` is named by a program: a
    module of the tree (its own included; ``__all__`` lists and
    ``lazy_exports`` tables do not count), a non-test file under
    :data:`PROGRAM_DIRS`, or a ``[project.scripts]`` entry. Code only
    tests reach belongs in ``tests/``. A name is an identifier, an
    attribute, an imported name or an identifier-valued string (the
    experiment table dispatches by name); methods are not checked, so
    the rule is a floor. :data:`REACHABILITY_ALLOWLIST` holds the
    exceptions, each with its reason; an entry with no reason, for a
    definition that does not exist, or for one a program now names is a
    violation.

README.md, DESIGN.md, pyproject.toml and :data:`PROGRAM_DIRS` are
looked up two levels above the root (the repo, for ``src/repro``).

Usage::

    python tools/lint.py [RULE ...] [--root DIR]

No RULE runs them all. Exits 0 when clean, 1 with one
``path:line: message`` per violation (paths relative to the root), 2 on
a usage error (unknown rule or flag, bad root, missing document).
Wired into tier-1 via ``tests/test_tooling/``.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
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
#: Trees beside ``src/`` whose non-test files are programs.
PROGRAM_DIRS = ("examples", "benchmarks", "tools")
#: ``"path::name" -> reason`` for public definitions no program names.
REACHABILITY_ALLOWLIST = {
    "elastic/preemption.py::PreemptionHandler": (
        "no entry point installs a signal handler yet; the preemptible-job "
        "item on ROADMAP.md decides whether one does or the class leaves"
    ),
}

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


def _literal_name(arg: ast.expr) -> str | None:
    """A string literal, or an f-string with a literal prefix written
    with ``<expr>`` for each placeholder (``f"comm.{op}"`` ->
    ``"comm.<op>"``); ``None`` for any other argument."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if (
        isinstance(arg, ast.JoinedStr)
        and arg.values
        and isinstance(arg.values[0], ast.Constant)
    ):
        return "".join(
            v.value if isinstance(v, ast.Constant) else f"<{ast.unparse(v.value)}>"
            for v in arg.values
        )
    return None


def emitted_names(tree: ast.AST) -> list[tuple[str, int]]:
    """``(name, lineno)`` of every literal-named telemetry emission."""
    return [
        (name, node.args[0].lineno)
        for node in _calls(tree)
        if node.args
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in EMIT_METHODS
        and (name := _literal_name(node.args[0])) is not None
    ]


def _documented(name: str, design: str) -> bool:
    """Whether DESIGN.md holds ``name``; each ``<expr>`` placeholder
    matches any ``<...>`` placeholder there."""
    parts = re.split(r"<[^<>]*>", name)
    if len(parts) == 1:
        return name in design
    return re.search(r"<[^<>\s]+>".join(map(re.escape, parts)), design) is not None


def check_telemetry_names(tree: ast.Module, rel: str, ctx: Tree) -> Hits:
    return [
        (lineno, f"telemetry name {name!r} is emitted but not documented in DESIGN.md")
        for name, lineno in emitted_names(tree)
        if not _documented(name, ctx.design)
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


# -- reachability --------------------------------------------------------------


def _is_table(node: ast.AST) -> bool:
    """An ``__all__`` assignment or a ``lazy_exports(...)`` call."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "lazy_exports"
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and any(
        getattr(t, "id", None) == "__all__" for t in targets
    )


def names_used(tree: ast.AST) -> set[str]:
    """Every identifier ``tree`` names outside its export tables, per the
    ``reachability`` rule."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if _is_table(node):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _program_names(repo: Path) -> set[str]:
    names = set()
    for d in PROGRAM_DIRS:
        for py in sorted((repo / d).rglob("*.py")):
            if not py.name.startswith("test_") and py.name != "conftest.py":
                names |= names_used(ast.parse(py.read_text(encoding="utf-8")))
    pyproject = repo / "pyproject.toml"
    if pyproject.is_file():
        import tomllib

        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        for target in scripts.get("project", {}).get("scripts", {}).values():
            names.add(target.rpartition(":")[2])
    return names


def check_reachability(
    ctx: Tree, allowlist: dict[str, str] = REACHABILITY_ALLOWLIST
) -> list[str]:
    program = _program_names(ctx.root.parent.parent)
    # Per top-level statement, so a definition naming itself (recursion,
    # a method's ``-> "Cls"``) does not reach itself.
    uses: Counter[str] = Counter()
    defs: dict[str, tuple[int, bool]] = {}
    for rel, tree in ctx.trees.items():
        for node in tree.body:
            names = names_used(node)
            uses.update(names)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                defs[f"{rel}::{node.name}"] = (node.lineno, node.name in names)
    named = {
        key for key, (_, self_named) in defs.items()
        if (name := key.partition("::")[2]) in program or uses[name] > self_named
    }
    violations = []
    for key, reason in allowlist.items():
        rel, _, name = key.partition("::")
        if key not in defs:
            violations.append(
                f"{rel}:1: reachability allowlist names {name!r}, which this file "
                "does not define — drop the entry"
            )
        elif not reason.strip():
            violations.append(
                f"{rel}:{defs[key][0]}: reachability allowlist entry for {name!r} "
                "gives no reason"
            )
        elif key in named:
            violations.append(
                f"{rel}:{defs[key][0]}: {name!r} is allowlisted but a program "
                "names it now — drop the entry"
            )
    for key, (lineno, _) in defs.items():
        rel, _, name = key.partition("::")
        if key not in named and key not in allowlist:
            violations.append(
                f"{rel}:{lineno}: public {name!r} is named by no program, only "
                "by tests or nothing — move it into tests/, give it a caller, "
                "or allowlist it with a reason"
            )
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
    "reachability": ("tree", check_reachability),
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
