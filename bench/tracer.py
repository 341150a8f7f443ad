"""Span recording around calls into the program's modules, from outside the program.

For the duration of a traced section, ``Tracer.install`` rebinds every public
function name that the six modules hold (their own functions and the ones
they import from each other) to a wrapper that records a span: name, start,
end, parent span and operation id.  Spans are kept in flat arrays in memory
and analysed (and written out) only when the section ends.

A span's self time is its duration minus the part its child spans cover, so
a generator consumed inside ``concat`` attributes the component maps it
drives to their own spans, nested inside ``concat``'s.  ``Path`` objects are
counted by wrapping ``Path.__post_init__``; subclassing ``Path`` would break
the dataclass equality the program relies on.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import pathlib
import time
import types
from array import array

# Functions whose first argument is a path: their steps are the span's work.
_STEPS_OF_FIRST_ARG = {
    "bijection.phi",
    "bijection.phi_inverse",
    "bijection.map_indecomposable_above",
    "bijection.map_indecomposable_below",
    "bijection.unmap_indecomposable",
    "bijection.trace_stages",
}


class Tracer:
    """Records nested spans; ``install``/``uninstall`` bracket a traced section."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.op = array("i")
        self.work = array("q")  # steps of the input path, or m! for count_avoiders
        self.result = array("q")  # paths enumerated, or avoiders counted
        self.path_objects = array("i")  # Path objects built while the span was innermost
        self._stack = [-1]
        self._op = 0
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.op.append(self._op)
        self.work.append(0)
        self.result.append(0)
        self.path_objects.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """A ``bench.op`` span around one operation of the benchmark; spans inside share its id."""
        self._op += 1
        i = self._open(self._id("bench.op"))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        steps = name in _STEPS_OF_FIRST_ARG
        enumerates = name.startswith("families.enumerate_class_")
        avoiders = name == "permutations.count_avoiders"

        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                value = fn(*args, **kwargs)
            finally:
                self._close(i)
            if steps:
                self.work[i] = len(args[0].steps)
            elif enumerates:
                self.result[i] = len(value)
            elif avoiders:
                self.work[i] = math.factorial(args[0])
                self.result[i] = value
            return value

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Rebind each module's public program functions to span-recording wrappers."""
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        wrapped: dict[object, object] = {}
        for module in modules.values():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                layer = layer_of.get(fn.__module__)
                if layer is None:
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self.wrap(f"{layer}.{fn.__name__}", fn)
                self._restore.append((module, attr, fn))
                setattr(module, attr, wrapped[fn])
        path_cls = modules["paths"].Path
        post_init = path_cls.__post_init__
        counts, stack = self.path_objects, self._stack

        def counted(path_self):
            top = stack[-1]
            if top >= 0:
                counts[top] += 1
            post_init(path_self)

        self._restore.append((path_cls, "__post_init__", post_init))
        path_cls.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def analyse(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, work, results, Path objects.

        ``path_objects`` counts the whole subtree, so for ``bijection.phi`` it
        is every Path built while phi ran.
        """
        n = len(self.start)
        covered = [0.0] * n
        subtree_paths = list(self.path_objects)
        # Children are opened after their parent, so a reverse sweep sees them first.
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
                subtree_paths[p] += subtree_paths[i]
        keys = ("calls", "total_s", "self_s", "work", "result", "path_objects")
        stats = {name: dict.fromkeys(keys, 0) for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            duration = self.end[i] - self.start[i]
            s["calls"] += 1
            s["total_s"] += duration
            s["self_s"] += duration - covered[i]
            s["work"] += self.work[i]
            s["result"] += self.result[i]
            s["path_objects"] += subtree_paths[i]
        return stats

    def write(self, path: pathlib.Path) -> None:
        """Write each span as a tab-separated line; times are microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tparent\top\tname\tstart_us\tend_us\twork\tresult\tpath_objects\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t"
                    f"{self.work[i]}\t{self.result[i]}\t{self.path_objects[i]}\n"
                )
