"""Span tracing of optomech layers, applied from outside the package.

Each measured function is replaced, in every ``optomech.*`` namespace that
binds it, by a wrapper that records one span: name, parent span, start and
end.  Rebinding every namespace matters because ``from .elements import
synthetic_response`` (and the numerics imports) give ``mos``, ``mate``,
``datasets`` and ``validation`` their own references, and because
``run_validation`` finds its ``_check_*`` routines through module globals.

Spans are kept in memory in flat arrays; ``Tracer.summary`` turns them into
per-name call counts, total time and self time (a span's duration minus the
time its child spans cover).
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

#: (module, attribute path) of every measured function.  Dotted attribute
#: paths are methods, patched on their class.
MEASURED = (
    ("optomech.cli", "main"),
    ("optomech.datasets", "run_scan"),
    ("optomech.datasets", "FigureDataset.write"),
    ("optomech.datasets", "reproduce_figure"),
    ("optomech.datasets", "compare_systems"),
    ("optomech.elements", "synthetic_response"),
    ("optomech.elements", "ElementSpec.validate"),
    ("optomech.elements", "compose_synthetic"),
    ("optomech.elements", "compose_synthetic_by_elimination"),
    ("optomech.mos", "operating_point"),
    ("optomech.mos", "exact_corrections"),
    ("optomech.mos", "solve_resonance"),
    ("optomech.mos", "resonance_residual"),
    ("optomech.msi", "msi_couplings"),
    ("optomech.mate", "mate_exact_decay"),
    ("optomech.mate", "mate_resonances"),
    ("optomech.mate", "resonance_residual"),
    ("optomech.mate", "dispersive_from_resonance"),
    ("optomech.noise", "general_spectra"),
    ("optomech.noise", "product_normalized"),
    ("optomech.numerics", "bisect"),
    ("optomech.numerics", "bracket_roots"),
)

def _layer_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{attr}"


class Tracer:
    """In-memory span store plus the counters measured at span boundaries."""

    def __init__(self) -> None:
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: exact counts taken at span boundaries (bytes written, roots, points)
        self.counters: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def rename(self, span_id: int, name: str) -> None:
        self.name[span_id] = self._name_id(name)

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Benchmark-side span, used as the root of one operation."""
        sid = self._open(self._name_id(name))
        try:
            yield sid
        finally:
            self._close(sid)

    def wrap(self, name: str, fn: Callable,
             on_return: Callable | None = None) -> Callable:
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if on_return is not None:
                on_return(self, sid, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every measured function in each optomech namespace binding it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import optomech.validation as validation

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "optomech" or n.startswith("optomech.")) and m is not None]
        hooks = {
            "datasets.run_scan": _count_scan_points,
            "datasets.FigureDataset.write": _count_written_bytes,
            "mate.mate_resonances": _count_roots,
        }
        for module_name, attr in MEASURED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                name = _layer_name(module_name, attr)
                self._patch(cls, meth, self.wrap(name, fn, hooks.get(name)))
                continue
            fn = getattr(owner, attr)
            name = _layer_name(module_name, attr)
            wrapped = self.wrap(name, fn, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
        # check spans are renamed to "validation.<CheckResult.name>"
        for attr, fn in list(vars(validation).items()):
            if attr.startswith("_check_"):
                self._patch(validation, attr,
                            self.wrap(f"validation.{attr}", fn, _name_check))

    def _patch(self, owner: object, key: str, value: object) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, mask: np.ndarray | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s over the recorded spans
        (or over those selected by mask)."""
        a = self.arrays()
        n = len(a["name"])
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent],
                              weights=duration[has_parent], minlength=n)
        self_time = duration - covered
        name = a["name"]
        if mask is not None:
            name, duration, self_time = name[mask], duration[mask], self_time[mask]
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=duration, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        return {
            self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                            "self_s": float(own[i])}
            for i in range(n_names) if calls[i]
        }

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of the spans that have a span named ancestor above them."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        found = np.zeros(len(name), dtype=bool)
        target = self._name_ids.get(ancestor)
        if target is None:
            return found
        cur = parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                return found
            found[live] |= name[cur[live]] == target
            cur[live] = parent[cur[live]]

    def write(self, path: Path) -> None:
        """Write the recorded spans (with the name table) as an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _count_scan_points(tracer: Tracer, sid: int, args: tuple, result) -> None:
    tracer.count("scan_points", args[0].points)


def _count_written_bytes(tracer: Tracer, sid: int, args: tuple, result) -> None:
    path = Path(args[1])
    tracer.count("write_bytes", path.stat().st_size
                 + Path(str(path) + ".meta").stat().st_size)


def _count_roots(tracer: Tracer, sid: int, args: tuple, result) -> None:
    tracer.count("mate_roots", len(result))


def _name_check(tracer: Tracer, sid: int, args: tuple, result) -> None:
    tracer.rename(sid, f"validation.{result.name}")
