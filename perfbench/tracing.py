"""In-memory spans around the calls into otkit's modules.

A :class:`Tracer` replaces a public function on the module (or class) through
which its caller reaches it, records one span per call, and puts the original
back on :meth:`Tracer.restore`. Spans stay in a list and are written once, at
the end of a run. Spans are recorded from the benchmark's side only: a call
that a module makes to a function it imported by name, and that is not listed
in :data:`TARGETS`, shows up as self time of its caller.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (owner, attribute, span name). The owner is the object its caller looks the
# attribute up on, so the wrapper sits where the call is actually made.
TARGETS = (
    ("cli", "build_instance", "cli.build_instance"),
    ("cli", "build_cost", "cli.build_cost"),
    ("cli", "exact_solve", "exact.exact_solve"),
    ("costs", "center", "costs.center"),
    ("solvers", "fista_solve", "solvers.fista_solve"),
    ("solvers", "sinkhorn_solve", "solvers.sinkhorn_solve"),
    ("solvers", "project_H", "smoothed_dual.project_H"),
    ("solvers", "recover_plan", "smoothed_dual.recover_plan"),
    ("metrics", "evaluate", "metrics.evaluate"),
    ("smoothed_dual", "energy", "smoothed_dual.energy"),
    ("SolveTrace", "to_csv", "solvers.SolveTrace.to_csv"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one benchmark process (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run_id = ""
        self._undo: list[tuple[object, str, object]] = []
        self._kids: dict[int | None, list[int]] = {}
        self._kids_for = 0

    @contextmanager
    def run(self, run_id: str):
        """Give every span opened inside the block the identifier ``run_id``."""
        previous, self._run_id = self._run_id, run_id
        try:
            yield
        finally:
            self._run_id = previous

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self._run_id))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def install(self, owners: dict) -> None:
        """Wrap every entry of :data:`TARGETS`; ``owners`` maps owner names to objects."""
        for owner, attribute, name in TARGETS:
            self.wrap(owners[owner], attribute, name)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def children(self, index: int) -> list[int]:
        if self._kids_for != len(self.spans):
            self._kids = {}
            for i, span in enumerate(self.spans):
                self._kids.setdefault(span.parent, []).append(i)
            self._kids_for = len(self.spans)
        return self._kids.get(index, [])

    def self_time(self, index: int) -> float:
        """Duration of a span minus the part of it that its children cover."""
        span = self.spans[index]
        covered = 0.0
        cursor = span.start
        for child in sorted((self.spans[i] for i in self.children(index)), key=lambda s: s.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def find(self, name: str, run_id: str | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s.name == name and (run_id is None or s.run_id == run_id)]

    def descendants(self, index: int, name: str) -> list[int]:
        found = []
        for child in self.children(index):
            if self.spans[child].name == name:
                found.append(child)
            found.extend(self.descendants(child, name))
        return found

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")
