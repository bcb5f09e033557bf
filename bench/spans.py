"""In-memory spans around the public functions of quadham's layer modules.

The traced run wraps every public module-level function of the layer modules
and rebinds the wrapper at every module attribute in the package that points
at the original, so calls made inside the package become nested spans.
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

One process and one caller run the jobs, so spans form a single stack and no
span ever waits on another layer: there is no waiting time to record.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# quadham modules that form the measured layers; _exact, tolerances and
# errors are deliberately left unwrapped.
LAYERS = ("phase_space", "spectral", "models", "fock", "wavefunctions",
          "serialize", "cli")


class Tracer:
    """Records (name, parent, job, start, end) for every wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = False
        self.job = -1
        self._rebound: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.job, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap each public layer function at every attribute bound to it."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"quadham.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
                    self.wrapped.add(f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "quadham" and not modname.startswith("quadham."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])
                    self._rebound.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._rebound:
            setattr(mod, attr, obj)
        self._rebound.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, parent, _job, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name, _parent, _job, t0, t1) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def covered(self) -> float:
        """Seconds inside top-level spans."""
        return sum(t1 - t0 for _n, parent, _j, t0, t1 in self.spans if parent < 0)

    def calls_by_job(self, name: str) -> dict[int, int]:
        out: dict[int, int] = {}
        for n, _parent, job, _t0, _t1 in self.spans:
            if n == name:
                out[job] = out.get(job, 0) + 1
        return out

    def dump(self) -> dict:
        """Compact span table: names once, then [name, parent, job, t0, dur]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][3] if self.spans else 0.0
        rows = [[index[n], p, j, round(t0 - t_base, 9), round(t1 - t0, 9)]
                for n, p, j, t0, t1 in self.spans]
        return {"names": names,
                "columns": ["name", "parent", "job", "start_s", "dur_s"],
                "spans": rows}
