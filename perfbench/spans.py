"""Spans around the benchmark's own calls into gbs, and per-module profiles.

A `Tracer` hands out wrapped versions of the gbs functions a workload calls.
The untraced tracer hands back the function itself, so an untraced round
pays nothing for the seam.  The recording tracer keeps every span in flat
arrays (name, start, end, parent) and writes them out once, at the end.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import speed

# The layers of the program: one per module of src/gbs.
MODULES = (
    "ordinals", "patterns", "spaces", "generators", "relations", "reductions",
    "codes", "groups", "harness", "dsl", "config", "cli",
)


class Tracer:
    """The untraced seam: every wrapped function is the function itself.

    `segment` times a named part of a round right after a speed sample
    (`speed.sample`, outside the timed part); the runner reads `parts`, one
    (name, seconds, sample before) per part.  `reference` is None for a
    round that must not be interrupted.
    """

    def __init__(self, reference: Optional[Callable[[], float]] = speed.sample):
        self.reference = reference
        self.parts: List[Tuple[str, float, float]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    @contextlib.contextmanager
    def segment(self, name: str):
        ref = self.reference() if self.reference else 0.0
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.parts.append((name, time.perf_counter() - t0, ref))

    def round_span(self):
        return contextlib.nullcontext()


class SpanTracer(Tracer):
    """Records one span per wrapped call; the enclosing round is the parent."""

    def __init__(self):
        super().__init__()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.current = -1

    def _open(self, name: str) -> int:
        k = self._ids.get(name)
        if k is None:
            k = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_of.append(k)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            sid = self._open(name)
            prev, self.current = self.current, sid
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                self.current = prev

        return traced

    @contextlib.contextmanager
    def round_span(self):
        sid = self._open("round")
        self.current = sid
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.current = -1

    def totals(self) -> Dict[str, List[float]]:
        """name -> [calls, busy seconds], rounds excluded."""
        out: Dict[str, List[float]] = {}
        for k, s, e in zip(self.name_of, self.start, self.end):
            row = out.setdefault(self.names[k], [0, 0.0])
            row[0] += 1
            row[1] += e - s
        out.pop("round", None)
        return out

    def write(self, path: Path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for sid, (k, s, e, p) in enumerate(zip(self.name_of, self.start, self.end, self.parent)):
                fh.write(f"{sid}\t{self.names[k]}\t{s - t0:.7f}\t{e - t0:.7f}\t{p}\n")


def module_profile(prof: cProfile.Profile, src: Path) -> Dict[str, List[float]]:
    """module -> [calls, self seconds] for every module of the package."""
    out = {m: [0, 0.0] for m in MODULES}
    pkg = str(src.resolve())
    for (filename, _, _), (_, nc, tt, _, _) in pstats.Stats(prof).stats.items():
        path = Path(filename)
        if str(path.parent) == pkg and path.stem in out:
            out[path.stem][0] += nc
            out[path.stem][1] += tt
    return out
