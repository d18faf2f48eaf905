"""Traced-run helper: wraps public flipiet functions from outside the program.

Coarse calls are recorded as spans (id, name, parent id, start, end, self
time); hot leaves are only counted, so that hundreds of thousands of calls do
not become as many spans.  Either kind reports calls, busy time (outermost
calls only, so recursion is not counted twice) and self time (duration minus
the time of direct children, spans and counted leaves alike).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []               # (id, name, parent id, start, end, self)
        self.stats = {}               # name -> [calls, busy_s, self_s]
        self.counts = Counter()       # named exact counts (hooks, parent spans)
        self._stack = []              # open frames: [child_s, span id, span name]
        self._patches = []            # (owner, attribute, original)

    # -- installing and removing wrappers ---------------------------------------

    def wrap(self, module, attr, span=False, on_return=None):
        """Wrap module.attr (a function, or Class.method) wherever a flipiet
        module or the class binds that same object.  The metric name is the
        module's last component followed by attr."""
        mod = sys.modules[module]
        name = module.rsplit(".", 1)[-1] + "." + attr
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            owners = [cls]
        else:
            original = getattr(mod, attr)
            owners = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "flipiet" or key.startswith("flipiet."))]
        wrapper = self._wrapper(name, original, span, on_return)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrapper(self, name, fn, span, on_return):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        active = [0]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if span:
                sid = len(spans)
                spans.append(None)        # reserve the id in call order
                frame = [0.0, sid, name]
            else:
                counts[(name, parent[2] if parent else None)] += 1
                frame = [0.0, parent[1] if parent else None,
                         parent[2] if parent else None]
            stack.append(frame)
            active[0] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[0] -= 1
                dur = t1 - t0
                self_s = dur - frame[0]
                stat[0] += 1
                stat[2] += self_s
                if not active[0]:
                    stat[1] += dur
                if parent is not None:
                    parent[0] += dur
                if span:
                    spans[sid] = (sid, name, parent[1] if parent else None,
                                  t0, t1, self_s)
            if on_return is not None:
                on_return(out, counts)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------------

    def calls_under(self, name, parent_span):
        """Calls of a counted leaf whose nearest enclosing span is parent_span."""
        return self.counts[(name, parent_span)]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end", "self_s"],
                       "spans": self.spans}, fh)
