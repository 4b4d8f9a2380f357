"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` wraps functions and methods of the program, records one
span per call (name, start, end, parent span, process, thread, request id
and a few attributes), and restores every original on :meth:`restore`.

Functions that other modules import by name (``from x import f``) are
patched at every binding site found in ``sys.modules``, so a call through
any of those names is seen.  Methods are patched on their class.

Forked children (the exec pool's workers) inherit the wrappers.  Each
child starts an empty span list and, when ``spill_dir`` is set, appends
every span to ``<spill_dir>/spans-<pid>.jsonl`` the moment it ends, so the
parent can read them after the pool has shut down.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

#: Field order of one span record.
SPAN_FIELDS = ("id", "parent", "name", "t0", "t1", "pid", "tid", "rid", "attrs")

_MARK = "__perfbench_original__"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, spill_dir: str | Path | None = None) -> None:
        self.spill_dir = None if spill_dir is None else str(spill_dir)
        self.spans: list[tuple] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spill = None
        self._patches: list[tuple[object, str, object]] = []
        #: Request ids keyed by a program-side handle (e.g. a job id), so
        #: work done later on another thread carries the caller's id.
        self.rid_of: dict[str, str] = {}
        self.active = True
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spill = None
        if self.spill_dir is not None:
            path = Path(self.spill_dir) / f"spans-{self.pid}.jsonl"
            self._spill = open(path, "a", encoding="utf-8")

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self) -> str | None:
        """The request id of the calling thread, if one is set."""
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value: str | None) -> None:
        self._local.rid = value

    def _record(self, span: tuple) -> None:
        with self._lock:
            self.spans.append(span)
            if self._spill is not None:
                self._spill.write(json.dumps(span) + "\n")
                self._spill.flush()

    def wrap(self, fn, name: str, attrs=None, rid=None):
        """A wrapper of ``fn`` recording one ``name`` span per call.

        ``attrs(args, kwargs, result)`` returns a dict stored on the span
        (``result`` is None when the call raised).  ``rid(args, kwargs)``
        returns the request id for the span and its children.  A hook
        that raises is recorded as ``{"hook_error": ...}``, never
        propagated into the program.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            saved_rid = tracer.rid
            if rid is not None:
                try:
                    new_rid = rid(args, kwargs)
                except Exception as exc:  # noqa: BLE001 - never break the program
                    new_rid = f"hook_error:{exc}"
                if new_rid is not None:
                    tracer.rid = new_rid
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = None
                if attrs is not None:
                    try:
                        extra = attrs(args, kwargs, result)
                    except Exception as exc:  # noqa: BLE001
                        extra = {"hook_error": repr(exc)}
                tracer._record((
                    sid, parent, name, t0, t1, tracer.pid,
                    threading.get_ident(), tracer.rid, extra,
                ))
                tracer.rid = saved_rid

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- patching ------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, name: str,
                       attrs=None, rid=None, only_in=None) -> int:
        """Wrap ``module.attr`` at every binding site; returns the count.

        ``only_in`` restricts the patch to the named modules (the
        function's own module is then not patched unless listed).
        """
        __import__(module_name)
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(original, name, attrs=attrs, rid=rid)
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if not _is_program(mod_name, module):
                continue
            if only_in is not None and mod_name not in only_in:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, key, wrapper)
                    sites += 1
        if not sites:
            raise RuntimeError(f"no binding of {module_name}.{attr} to patch")
        return sites

    def patch_method(self, cls, attr: str, name: str, attrs=None,
                     rid=None) -> None:
        """Wrap one method on its class (instances see it immediately)."""
        original = cls.__dict__[attr]
        self.replace(cls, attr, self.wrap(original, name, attrs=attrs, rid=rid))

    def replace(self, owner, key: str, value) -> None:
        """Set ``owner.key`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        self.active = False
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def close(self) -> None:
        if self._spill is not None:
            self._spill.close()
            self._spill = None

    # -- export --------------------------------------------------------

    def records(self) -> list[dict]:
        """This process's spans as dicts."""
        return [dict(zip(SPAN_FIELDS, span)) for span in self.spans]


def _is_program(mod_name: str, module) -> bool:
    return module is not None and (
        mod_name == "repro" or mod_name.startswith("repro."))


def leftover_wrappers() -> list[str]:
    """``module.name`` of every program binding that is still a wrapper."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not _is_program(mod_name, module):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{key}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{mod_name}.{key}.{attr}")
    return found


def read_spill(spill_dir: str | Path) -> list[dict]:
    """Every span the forked children wrote under ``spill_dir``."""
    out = []
    for path in sorted(Path(spill_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                out.append(dict(zip(SPAN_FIELDS, json.loads(line))))
    return out
