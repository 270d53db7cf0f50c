"""Aggregating span tracer that instruments the simulator from outside.

:class:`Tracer` wraps public functions and keeps, per ``(name, parent)``
pair, the call count, the total nanoseconds and the self nanoseconds
(total minus the time covered by traced children).  It keeps no per-call
records: a saturated run makes over a million routing calls, and only the
aggregates are reported.

Only the *outermost* call of a name is timed.  A traced function reached
again while a call of the same name is open (a ``super()`` chain through
two patched classes, or recursion) runs untimed and uncounted, so its time
stays with the outer call and is never counted twice.

:func:`patched` installs the wrappers at class or module level for the
duration of a ``with`` block and restores the original attributes on exit.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["ROOT", "SpanStats", "Target", "Tracer", "patched"]

#: Parent name of a span opened with nothing else open.
ROOT = "<root>"


@dataclass
class SpanStats:
    """Aggregate of every outermost call of one name under one parent."""

    count: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Aggregates span timings and user counters for one traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        #: Open spans, innermost last: ``[name, child_ns]``.
        self._stack: List[list] = []
        self._open: set = set()
        self.spans: Dict[Tuple[str, str], SpanStats] = {}
        self.counters: Dict[str, int] = {}

    # -- recording --------------------------------------------------------
    def _close(self, name: str, frame: list, elapsed: int) -> None:
        stack = self._stack
        stack.pop()
        self._open.discard(name)
        parent = stack[-1] if stack else None
        key = (name, parent[0] if parent is not None else ROOT)
        stats = self.spans.get(key)
        if stats is None:
            stats = self.spans[key] = SpanStats()
        stats.count += 1
        stats.total_ns += elapsed
        stats.self_ns += elapsed - frame[1]
        if parent is not None:
            parent[1] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the ``with`` body as a span called ``name``."""
        if name in self._open:
            yield
            return
        frame = [name, 0]
        self._open.add(name)
        self._stack.append(frame)
        start = self._clock()
        try:
            yield
        finally:
            self._close(name, frame, self._clock() - start)

    def wrap(
        self,
        name: str,
        func: Callable,
        observe: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """Return ``func`` timed as span ``name``.

        ``observe(tracer, args, result)`` runs after a successful outermost
        call, outside the span, to update counters from the call's
        arguments and result.
        """
        clock = self._clock
        stack = self._stack
        open_names = self._open
        close = self._close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name in open_names:
                return func(*args, **kwargs)
            frame = [name, 0]
            open_names.add(name)
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                close(name, frame, clock() - start)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- queries ----------------------------------------------------------
    def calls(self, name: str) -> int:
        return sum(s.count for (n, _), s in self.spans.items() if n == name)

    def total_ns(self, name: str) -> int:
        return sum(s.total_ns for (n, _), s in self.spans.items() if n == name)

    def self_ns(self, name: str) -> int:
        return sum(s.self_ns for (n, _), s in self.spans.items() if n == name)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)


@dataclass(frozen=True)
class Target:
    """One attribute to trace: ``owner.attr`` reported as span ``name``."""

    owner: Any
    attr: str
    name: str
    observe: Optional[Callable[[Tracer, tuple, Any], None]] = None


@contextmanager
def patched(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Install traced wrappers for ``targets``; restore the originals on exit.

    Every original is resolved before anything is patched, so a subclass
    that inherits a patched base-class method wraps the original function,
    not the base class's wrapper.  An attribute the owner only inherited is
    deleted again on exit rather than pinned onto the owner.
    """
    saved = []
    for target in targets:
        own = target.owner.__dict__ if isinstance(target.owner, type) else vars(target.owner)
        saved.append((target, own.get(target.attr), target.attr in own,
                      getattr(target.owner, target.attr)))
    try:
        for target, _, _, original in saved:
            setattr(
                target.owner,
                target.attr,
                tracer.wrap(target.name, original, target.observe),
            )
        yield tracer
    finally:
        for target, own_value, had_own, _ in reversed(saved):
            if had_own:
                setattr(target.owner, target.attr, own_value)
            else:
                delattr(target.owner, target.attr)
