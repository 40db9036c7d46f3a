"""Spans at the package's public-function boundaries, recorded from the
benchmark's own code.

``Tracer.install`` wraps each traced function and rebinds it under every
name that callers look up: the package itself and each ``splogic``
module holding the same function object (``splogic.finder.is_model``,
``splogic.translate.full_translation`` and so on).  Nothing inside the
package changes.  A span is ``[id, parent id, item id, name, start, end,
result]``; spans stay in memory and are written out when the run ends.
The self time of a span is its duration minus the time its child spans
cover, so the self times of all spans add up to the duration of the
root item spans.  Spans are timed on the clock the Tracer is given; the
benchmark passes the speed sampler's, which leaves out its samples.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> (module, function)
TRACED = {
    "parser.parse_formula": ("splogic.parser", "parse_formula"),
    "parser.print_formula": ("splogic.parser", "print_formula"),
    "syntax.validate_formula": ("splogic.syntax", "validate_formula"),
    "translate.full_translation": ("splogic.translate", "full_translation"),
    "translate.lift_model": ("splogic.translate", "lift_model"),
    "translate.lower_model": ("splogic.translate", "lower_model"),
    "fosl.is_model": ("splogic.fosl", "is_model"),
    "v1.is_model_v1": ("splogic.v1", "is_model_v1"),
    "finder.find_fosl_model": ("splogic.finder", "find_fosl_model"),
    "finder.find_v1_model": ("splogic.finder", "find_v1_model"),
    "finder.equisat_check": ("splogic.finder", "equisat_check"),
}

# spans whose return value the summary needs (sizes and search outcomes)
KEEP_RESULT = {
    "parser.parse_formula",
    "translate.full_translation",
    "finder.find_fosl_model",
    "finder.find_v1_model",
}

ITEM = "bench.item"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.item_id = -1
        self.active = False
        self._rebound: list[tuple] = []

    def wrap(self, name: str, fn):
        keep = name in KEEP_RESULT
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            span = [len(spans), parent, self.item_id, name, clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span[6] = result
                return result
            finally:
                span[5] = clock()
                stack.pop()

        return traced

    def item(self, fn):
        """Wrap the benchmark's per-item call: a root span, and spans below
        it only while it runs, so the checks between items stay untraced."""
        inner = self.wrap(ITEM, fn)

        def traced_item(*args, **kwargs):
            self.item_id += 1
            self.active = True
            try:
                return inner(*args, **kwargs)
            finally:
                self.active = False

        return traced_item

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "splogic" or k.startswith("splogic."))]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
                    self._rebound.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._rebound):
            setattr(m, attr, original)
        self._rebound.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, item, name, start, end, _ in self.spans:
                fh.write(json.dumps([sid, parent, item, name, start, end]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its children."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def summarize(spans: list[list], formula_size) -> dict:
    """Per-name totals plus the finder breakdown the benchmark reports."""
    own = self_times(spans)
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    revalidate = backward = equisat = 0.0
    outcomes = {"ModelFound": 0, "ExhaustedUnsat": 0, "SearchTimeout": 0}
    parsed_nodes = 0
    translation_nodes: list[int] = []
    for s, self_s in zip(spans, own):
        name, dur = s[3], s[5] - s[4]
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += self_s
        parent = spans[s[1]][3] if s[1] is not None else None
        if name in ("fosl.is_model", "v1.is_model_v1") and parent in (
            "finder.find_fosl_model", "finder.find_v1_model"
        ):
            revalidate += dur
        if name == "finder.equisat_check":
            equisat += dur
        if name == "finder.find_fosl_model" and parent == "finder.equisat_check":
            backward += dur
        if s[6] is None:
            continue
        if name in ("finder.find_fosl_model", "finder.find_v1_model"):
            kind = type(s[6]).__name__
            outcomes[kind] = outcomes.get(kind, 0) + 1
        elif name == "parser.parse_formula":
            parsed_nodes += formula_size(s[6])
        elif name == "translate.full_translation":
            translation_nodes.append(formula_size(s[6]))
    roots = [s for s in spans if s[1] is None]
    return {
        "by_name": dict(by_name),
        "items": len(roots),
        "wall_s": sum(s[5] - s[4] for s in roots),
        "self_sum_s": sum(own),
        "revalidate_s": revalidate,
        "backward_s": backward,
        "equisat_s": equisat,
        "outcomes": outcomes,
        "parsed_nodes": parsed_nodes,
        "translation_nodes": translation_nodes,
    }
