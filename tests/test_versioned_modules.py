"""The cache code-version digests must cover everything they cache.

``repro.exec.cache`` hashes the sources of ``_VERSIONED_MODULES`` into
every cache key; a module that influences simulation results but is
missing from that set lets stale cached metrics survive a kernel edit.
This test statically extracts everything :mod:`repro.noc.simulator`
imports — transitively, to a fixpoint — and asserts each module is in
the versioned set.

The experiment memo adds ``_MEMO_MODULES`` on top.  Everything
:mod:`repro.experiments.repro_all` imports — deferred imports inside
functions included — must be in one of the two sets, or on
``_MEMO_EXEMPT`` with the reason its source can never change a payload.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

from repro.exec.cache import _VERSIONED_MODULES, code_version
from repro.experiments.artifact import _MEMO_MODULES

#: Modules reachable from repro-all that the memo deliberately ignores.
_MEMO_EXEMPT: dict[str, str] = {
    "repro": "package root, re-exports only; repro_all imports it to "
             "locate the committed expectations",
    "repro.common": "package __init__, re-exports only",
    "repro.core": "package __init__, re-exports only",
    "repro.noc": "package __init__, re-exports only",
    "repro.telemetry": "package __init__, re-exports only",
    "repro.noc.timeline": "time-series sampler reached through the "
                          "repro.noc re-exports; no experiment attaches one",
    "repro.exec.cache": "the run cache returns exactly what a miss "
                        "recomputes; its own versions key every entry",
    "repro.exec.journal": "checkpoint journal: a resume replays committed "
                          "results, never alters them",
    "repro.experiments.artifact": "the memo itself; a layout change bumps "
                                  "ARTIFACT_SCHEMA, which is in the key",
    "repro.experiments.claims": "judges payloads after the memo; editing a "
                                "claim must keep the memo warm",
    "repro.experiments.report": "renders CSV and HTML from payloads; the "
                                "memo stores payloads, not renderings",
    "repro.telemetry.diff": "reads telemetry directories; no payload does",
    "repro.telemetry.io": "writes telemetry directories; no payload reads "
                          "them",
    "repro.validate.invariants": "observe-only auditor: a violation "
                                 "raises, it never alters a result",
}


def _is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _module_imports(name: str, nested: bool = False) -> set[str]:
    """The ``repro.*`` modules imported by ``name``.

    Top-level imports only, unless ``nested`` also asks for the deferred
    imports inside functions, classes and ``try``/``with`` blocks.
    ``if TYPE_CHECKING:`` blocks are skipped — typing-only imports never
    execute and cannot change results.  ``from pkg.mod import Thing``
    resolves to ``pkg.mod`` unless ``Thing`` is itself a module.
    """
    spec = importlib.util.find_spec(name)
    assert spec is not None and spec.origin is not None, name
    tree = ast.parse(Path(spec.origin).read_text())
    found: set[str] = set()

    def scan(body) -> None:
        for node in body:
            if isinstance(node, ast.If):
                test = node.test
                is_type_checking = (
                    isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
                ) or (
                    isinstance(test, ast.Attribute)
                    and test.attr == "TYPE_CHECKING"
                )
                if is_type_checking:
                    continue
                scan(node.body)
                scan(node.orelse)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        found.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith("repro"):
                    for alias in node.names:
                        child = f"{node.module}.{alias.name}"
                        found.add(child if _is_module(child) else node.module)
            elif nested:
                scan(ast.iter_child_nodes(node))

    scan(tree.body)
    return found


def _transitive_imports(root: str, nested: bool = False) -> set[str]:
    """Every ``repro.*`` module reachable from ``root`` — full fixpoint.

    Breadth-first over :func:`_module_imports` until no new module
    appears, so a dependency added three hops deep still fails the
    coverage assertion below.
    """
    reachable = {root}
    frontier = [root]
    while frontier:
        nxt: list[str] = []
        for module in sorted(frontier):
            for child in _module_imports(module, nested):
                if child not in reachable:
                    reachable.add(child)
                    nxt.append(child)
        frontier = nxt
    return reachable


def test_simulator_imports_are_all_versioned():
    reachable = _transitive_imports("repro.noc.simulator")
    assert len(reachable) > 1, "scan found no imports — the extractor is broken"
    missing = reachable - set(_VERSIONED_MODULES)
    assert not missing, (
        f"modules reachable from the simulator but absent from "
        f"_VERSIONED_MODULES (cached runs would survive edits to them): "
        f"{sorted(missing)}"
    )


def test_fixpoint_is_strictly_deeper_than_one_level():
    # Guard the guard: the fixpoint must see modules a one-level scan
    # misses (e.g. repro.models.store, reached only via the registry).
    level1 = _module_imports("repro.noc.simulator")
    shallow = {"repro.noc.simulator"} | set(level1)
    for module in sorted(level1):
        shallow |= _module_imports(module)
    deep = _transitive_imports("repro.noc.simulator")
    assert shallow <= deep
    assert deep - shallow, (
        "the transitive fixpoint found nothing beyond two levels; if the "
        "import graph really did flatten, simplify this test"
    )


def test_repro_all_imports_are_all_memo_versioned():
    reachable = _transitive_imports("repro.experiments.repro_all", nested=True)
    assert "repro.experiments.figures" in reachable, "extractor is broken"
    covered = set(_MEMO_MODULES) | set(_VERSIONED_MODULES) | set(_MEMO_EXEMPT)
    missing = reachable - covered
    assert not missing, (
        f"modules reachable from repro-all but in neither _MEMO_MODULES "
        f"nor _VERSIONED_MODULES (memoized payloads would survive edits "
        f"to them); version them or exempt them with a reason: "
        f"{sorted(missing)}"
    )


def test_memo_exemptions_are_live_and_disjoint():
    reachable = _transitive_imports("repro.experiments.repro_all", nested=True)
    versioned = set(_MEMO_MODULES) | set(_VERSIONED_MODULES)
    for name, reason in _MEMO_EXEMPT.items():
        assert name in reachable, f"stale exemption: {name}"
        assert name not in versioned, f"{name} is versioned and exempt"
        assert reason, name


def test_versioned_modules_all_exist():
    for name in _VERSIONED_MODULES + _MEMO_MODULES:
        assert _is_module(name), f"versioned module {name!r} does not exist"


def test_code_version_is_stable_and_nonempty():
    v = code_version()
    assert v and v == code_version()
