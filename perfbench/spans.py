"""In-memory spans around calls into tsclust's public functions.

A :class:`Tracer` swaps chosen module-level functions of the loaded tsclust
package for wrappers that record one :class:`Span` per call, and puts the
originals back on :meth:`Tracer.uninstall`.  The wrapper replaces every
reference a tsclust module holds to the function, so calls made inside the
package (``run_tsc`` calling ``select_neighbors``, ``run_experiment``
calling ``run_tsc``) are recorded too.  The program's source is not changed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    """One call: its name (``module.function``), start and end on the
    ``perf_counter`` clock, the index of the enclosing span, and the op it
    belongs to.  ``args`` and ``result`` are held until :meth:`Tracer.release`
    so the benchmark can check and count what the call produced."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int
    args: tuple | None = None
    result: object = None


def public_functions(module_name: str) -> list[str]:
    """``module.function`` names of the public functions a tsclust module defines."""
    module = sys.modules["tsclust." + module_name]
    return [
        f"{module_name}.{name}"
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


class Tracer:
    """Records spans for the functions installed, tagged with ``self.op``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, names) -> None:
        """Wrap each ``"module.function"`` of the tsclust package."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "tsclust" or key.startswith("tsclust.")
        ]
        for name in names:
            module_name, fn_name = name.rsplit(".", 1)
            original = getattr(sys.modules["tsclust." + module_name], fn_name)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around each call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.op, args)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    def outermost(self, names, spans=None) -> list[Span]:
        """Spans named in ``names`` that no other span named in ``names`` encloses."""
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for span in self.spans if spans is None else spans:
            if span.name not in names:
                continue
            p = span.parent
            while p is not None and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p is None:
                out.append(span)
        return out

    def seconds(self, names) -> float:
        """Total time inside the functions named, counting nested calls once."""
        return sum(s.end - s.start for s in self.outermost(names))

    def release(self) -> None:
        """Drop the arguments and results held by finished spans."""
        for span in self.spans:
            span.args = span.result = None
