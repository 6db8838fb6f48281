"""In-memory span recorder for the benchmark's traced run.

Spans are recorded around calls into legdet's public functions, from the
benchmark's side: each target function is replaced by a timing wrapper in
every legdet namespace that holds it, so that `from .exactla import det` in
verify and cli is traced as well as exactla's own calls.  Spans are kept in
a list and written out once, after the measured phase.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span fields
NAME, START, END, PARENT, OP, COUNT = range(6)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0  # index of the op that spans are attributed to

    def _wrap(self, name, fn, name_of, count_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name_of(args, kwargs) if name_of else name,
                0,
                0,
                stack[-1] if stack else -1,
                self.op,
                count_of(args, kwargs) if count_of else None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self, module, attr, name, name_of=None, count_of=None) -> None:
        """Trace `module.attr` under `name` in every loaded legdet namespace."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, name_of, count_of)
        for modname, mod in list(sys.modules.items()):
            if modname != "legdet" and not modname.startswith("legdet."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                       "parent": s[PARENT], "op": s[OP]}
                if s[COUNT] is not None:
                    row["count"] = s[COUNT]
                fh.write(json.dumps(row) + "\n")

    def totals(self, enclosing_prefix: str, counted: str):
        """Aggregate the spans per name.

        Returns {name: [calls, busy_ns, self_ns, count]} and
        {enclosing name: number of `counted` spans below it}.  busy_ns counts a
        span only when no ancestor has the same name, so recursion is not
        counted twice; self_ns subtracts the time of direct children.
        `enclosing` maps each span to its nearest ancestor whose name starts
        with enclosing_prefix (a catalog check, say).
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        enclosing: list[str | None] = [None] * len(spans)
        for i, s in enumerate(spans):
            par = s[PARENT]
            if par >= 0:
                child_ns[par] += s[END] - s[START]
                enclosing[i] = enclosing[par]
            if s[NAME].startswith(enclosing_prefix):
                enclosing[i] = s[NAME]
        agg: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        inner: dict[str, int] = defaultdict(int)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            a = agg[s[NAME]]
            a[0] += 1
            a[2] += dur - child_ns[i]
            a[3] += s[COUNT] or 0
            par = s[PARENT]
            while par >= 0 and spans[par][NAME] != s[NAME]:
                par = spans[par][PARENT]
            if par < 0:
                a[1] += dur
            if s[NAME] == counted and s[PARENT] >= 0 and enclosing[s[PARENT]]:
                inner[enclosing[s[PARENT]]] += 1
        return agg, inner
