"""In-memory span tracing of a live package, installed from outside it.

``Tracer.wrap`` replaces a module function or a class method with a
wrapper that records a span around each call: name, start, end, the index
of the enclosing span, and the multiply-accumulates counted while the span
was open.  The package's source is never edited; ``Tracer.restore`` puts
every original back.

A name that does not exist (a later version of the package removed or
renamed it) is recorded in ``Tracer.absent`` and skipped, so a report built
from the spans shows that layer as 0 instead of crashing.
"""

from __future__ import annotations

import gzip
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    macs: int = 0        # inclusive: the span's own MACs plus its children's

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children of a span cover
    disjoint parts of its interval and their durations can be subtracted.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def self_macs(spans: list[Span]) -> list[int]:
    """Each span's MACs minus its direct children's (counters are nested)."""
    out = [s.macs for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.macs
    return out


class _NoCounter:
    macs = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class Tracer:
    """Records spans around wrapped callables while ``enabled`` is true.

    ``counter`` is a context-manager class with a ``macs`` attribute that
    sees the work done while it is open (``densecil.tensor.MacCounter``).
    An opaque span records no spans below itself: its self time is all the
    time spent inside it.
    """

    def __init__(self, counter: type | None = None, clock: Callable[[], float] = time.perf_counter):
        self.counter = counter or _NoCounter
        self.clock = clock
        self.enabled = False
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._opaque = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, macs: int = 0) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.macs = macs
        self._stack.pop()

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start an empty list."""
        if self._stack:
            raise RuntimeError("take() while spans are open")
        spans, self.spans = self.spans, []
        return spans

    # -- installation --------------------------------------------------------

    def wrap(self, owner, attr: str, label: str, *,
             name: Callable[[tuple, dict], str] | None = None,
             opaque: Callable[[tuple, dict], bool] | bool = False,
             before: Callable[[tuple, dict], None] | None = None,
             after: Callable[[object], None] | None = None) -> bool:
        """Wrap ``owner.attr`` (a module function or a class's method).

        ``label`` names the span unless ``name`` computes one from the call's
        arguments.  ``before`` runs before the span opens and ``after`` gets
        the result after it closes; neither is timed.  Returns False and
        records ``label`` as absent when ``owner`` has no such attribute.
        """
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.absent.append(label)
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._opaque:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span_name = label if name is None else name(args, kwargs)
            hide = opaque(args, kwargs) if callable(opaque) else opaque
            index = tracer.open(span_name)
            tracer._opaque += hide
            counter = tracer.counter()
            counter.__enter__()
            try:
                result = original(*args, **kwargs)
            finally:
                counter.__exit__(None, None, None)
                tracer._opaque -= hide
                tracer.close(index, counter.macs)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def hook(self, owner, attr: str, label: str, before: Callable[[tuple, dict], None]) -> bool:
        """Call ``before(args, kwargs)`` ahead of every call, traced or not."""
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.absent.append(label)
            return False

        def hooked(*args, **kwargs):
            before(args, kwargs)
            return original(*args, **kwargs)

        hooked.__wrapped__ = original
        setattr(owner, attr, hooked)
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path, runs: list[list[Span]]) -> None:
    """One JSON line per span: run index, name, start, end, parent, MACs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as f:
        for run, spans in enumerate(runs):
            for s in spans:
                f.write(json.dumps([run, s.name, s.start, s.end, s.parent, s.macs]) + "\n")
