"""In-memory span tracer that wraps flagsieve's public functions from outside.

The package imports names with ``from .x import y``, so a function lives
under several module attributes.  ``Tracer.install`` replaces the function
in every flagsieve module that holds it (and methods on their class), and
``Tracer.uninstall`` puts the originals back.  Nothing in ``src/`` changes.

A span is ``(id, name, start_ns, end_ns, parent_id)``.  Self time is a
span's duration minus the time covered by its child spans.  Hot kernels are
wrapped with a call counter only, because a span per call would cost more
than the kernel.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Spans, per-name self and inclusive time, call counts and tallies."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, int, int, Optional[int]]] = []
        self.self_ns: Counter = Counter()
        self.inclusive_ns: Counter = Counter()  # outermost calls of each name
        self.calls: Counter = Counter()
        self.tallies: Counter = Counter()  # work counts read at the boundary
        self.state: Dict[str, object] = {}  # scratch space for observers
        self._stack: List[list] = []
        self._depth: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, observe: Optional[Observer]):
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # spans started so far = ended + still open, so ids are sequential
            frame = [len(self.spans) + len(stack), clock(), 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - frame[1]
                self.self_ns[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if not depth[name]:
                    self.inclusive_ns[name] += duration
                self.calls[name] += 1
                self.spans.append((frame[0], name, frame[1], end, parent))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(
        self,
        modules: Dict[str, object],
        plan: Sequence[Tuple[str, str, str, Optional[Observer]]],
    ) -> List[str]:
        """Wrap each (module, 'func' or 'Class.method', 'span'|'count', observer).

        The span name is ``module.func`` (the class name is dropped).  Returns
        the names that do not exist; their metrics read 0.
        """
        missing = []
        for module_name, qualname, kind, observe in plan:
            owner = modules[module_name]
            attr = qualname
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{qualname}")
                continue
            name = f"{module_name}.{attr}"
            if kind == "span":
                wrapped = self._span_wrapper(name, original, observe)
            else:
                wrapped = self._count_wrapper(name, original)
            if owner is not modules[module_name]:
                self._undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapped)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON object per line, in the order spans ended."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
