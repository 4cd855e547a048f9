"""In-memory span tracer that times calls into skqe from outside the package.

Tracing swaps chosen module or class attributes for wrappers that record one
span per call: a name, an optional label, the parent span, a start and an
end. ``stop`` puts the original attributes back, so an untraced phase runs
the program exactly as shipped. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

ACCOUNTING = "trace.accounting"

# span record layout: [name, label, parent index or -1, start, end]
NAME, LABEL, PARENT, START, END = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def open(self, name: str, label: str | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, label, parent, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(value, self.maxima.get(name, value))

    def label_of_open(self, name: str) -> str | None:
        """Label of the innermost open span called ``name``."""
        for index in reversed(self._stack):
            if self.spans[index][NAME] == name:
                return self.spans[index][LABEL]
        return None

    # --- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, label=None, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until ``stop``.

        ``label(args, kwargs)`` names the span's label; ``before(args)``
        returns a state handed to ``after(args, result, state)``, which runs
        inside a ``trace.accounting`` span so its cost is excluded from the
        self time of the enclosing layer.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            index = self.open(name, label(args, kwargs) if label else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if after:
                acc = self.open(ACCOUNTING)
                try:
                    after(args, result, state)
                finally:
                    self.close(acc)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def counter(self, owner, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` without opening spans."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def stop(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- summaries ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def under(self, name: str) -> list[bool]:
        """Per span: whether it is, or lies under, a span called ``name``."""
        inside: list[bool] = []
        for span in self.spans:  # a parent always precedes its children
            inside.append(span[NAME] == name or (span[PARENT] >= 0 and inside[span[PARENT]]))
        return inside

    def totals(self, mask: list[bool], key=lambda span: span[NAME]) -> tuple[dict, dict, Counter]:
        """Inclusive time, self time and call count per ``key(span)``, over masked spans."""
        inclusive: dict = defaultdict(float)
        own_total: dict = defaultdict(float)
        calls: Counter = Counter()
        for span, own, keep in zip(self.spans, self.self_times(), mask):
            if keep:
                k = key(span)
                inclusive[k] += span[END] - span[START]
                own_total[k] += own
                calls[k] += 1
        return inclusive, own_total, calls

    def write_spans(self, path) -> None:
        """One JSON object per line, times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, label, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "label": label, "parent": parent,
                    "start": start - origin, "end": end - origin,
                }) + "\n")
