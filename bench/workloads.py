"""The four benchmark workloads: inputs, the timed call, and the check.

Every function takes the imported ``splogic`` package as ``sp`` instead of
importing it here, because the benchmark imports the package afresh for
each set-up it times; the objects of one import must not meet those of
another.  ``screen.py`` uses the same definitions to produce the committed
pools under ``data/``.

Each workload is a closed loop: one caller runs its items one after
another, and an item starts when the previous one has been checked.  Its
pool, ``data/<workload>.json``, holds ``block`` pairs of cost neighbours;
a run sets up one item of each pair (see pick_block; equisat_hard draws
differently, see Equisat) and makes passes over that block, which is
sized so that a pass takes a few seconds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

CORPUS_DEPTH = 4
CT_DEPTH = 5


def corpus_vocab(sp):
    return sp.make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])


def equisat_bounds(sp):
    return sp.Bounds(max_entities=2, max_individuals=2, max_precisifications=2, timeout=60)


def solve_v1_bounds(sp):
    return sp.Bounds(max_entities=4, max_precisifications=2, max_individuals=3, timeout=60)


def ct_fosl_vocab(sp):
    return sp.make_fosl_vocabulary({"Kind": 1, "Near": 2}, ["c"], ["s", "t"])


def ct_v1_vocab(sp):
    return sp.make_v1_vocabulary(
        ["Kind"], {"Attr": 1}, {"Shape": 1, "Near": 2}, ["n"], ["s", "t"]
    )


def ct_fosl_bounds(sp):
    return sp.Bounds(max_domain=3, max_precisifications=2)


def ct_v1_bounds(sp):
    return sp.Bounds(max_entities=3, max_precisifications=2, max_individuals=3)


def load_pool(name: str) -> dict:
    with open(DATA / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def cost_pairs(rows: list, cost) -> list:
    """rows sorted by screened cost and cut into pairs of neighbours."""
    ranked = sorted(rows, key=lambda r: (cost(r), r[0]))
    return [ranked[i:i + 2] for i in range(0, len(ranked) - 1, 2)]


def spread_pairs(rows: list, cost, count: int) -> list:
    """The rows of count pairs spaced evenly over the whole cost range;
    screen.py commits these as a workload's pool."""
    pairs = cost_pairs(rows, cost)
    return [r for j in range(count) for r in pairs[j * len(pairs) // count]]


def pick_block(rows: list, cost, seed: int) -> list:
    """One member of each pair of cost neighbours, chosen by the seed, in
    an order shuffled by the seed.

    Every seed gets the same cost mix and only which items fill it
    changes.  The costs are heavy-tailed (one item can cost as much as a
    thousand others), so drawing items at random would make the seed, not
    the program, decide the throughput and the percentiles.  The shuffle
    spreads items of every cost over the whole pass: in cost order the
    cheap half of a pass, which sets the median latency, would run within
    a fraction of a second, and the median would follow the machine's
    speed in that fraction alone."""
    rng = random.Random(seed)
    block = [rng.choice(p) for p in cost_pairs(rows, cost)]
    rng.shuffle(block)
    return block


@dataclass
class Item:
    seed: int          # generator seed
    expected: object   # committed verdict
    inputs: tuple
    nodes: int         # source formula nodes
    cost_ms: float     # screened cost, which sets how often a pass runs it


# ---------------------------------------------------------------------------
# equisat_corpus / equisat_hard
# ---------------------------------------------------------------------------

class Equisat:
    """equisat_check on generated sentences given as text.

    With an anchor, every block holds the anchor's row and block - 1 of
    the pool's other rows, drawn by the seed.  equisat_hard's block is
    three sentences of 5-10 s each, so its percentiles are single
    sentences: drawn in cost pairs, the costliest pair's two members
    (seeds 167 and 672, 23% apart) alone moved p90 by 0.2 from seed to
    seed.  Seed 167, the ROADMAP's, is in every block instead; the other
    five lie within 10% of each other."""

    def __init__(self, pool: str, block: int, anchor: int | None = None):
        self.pool, self.block, self.anchor = pool, block, anchor

    def pick(self, rows: list, seed: int) -> list:
        if self.anchor is None:
            return pick_block(rows, self.cost, seed)
        rng = random.Random(seed)
        block = [r for r in rows if r[0] == self.anchor]
        block += rng.sample([r for r in rows if r[0] != self.anchor], self.block - 1)
        rng.shuffle(block)
        return block

    @staticmethod
    def cost(row) -> float:
        return row[2]  # [seed, verdict, total_ms, fosl_ms]

    def build(self, sp, seed: int) -> tuple[dict, list[Item]]:
        vocab = corpus_vocab(sp)
        ctx = {"vocab": vocab, "bounds": equisat_bounds(sp)}
        items = []
        for row in self.pick(load_pool(self.pool)["rows"], seed):
            f = sp.generate_formula(vocab, row[0], CORPUS_DEPTH)
            items.append(Item(row[0], row[1], (sp.print_formula(f),), sp.formula_size(f),
                              self.cost(row)))
        return ctx, items

    def run(self, sp, ctx, item: Item):
        f = sp.parse_formula(item.inputs[0], ctx["vocab"])
        return f, sp.equisat_check(ctx["vocab"], f, ctx["bounds"])

    def check(self, sp, naive, ctx, item: Item, out) -> tuple[list[str], int]:
        f, report = out
        translation = sp.full_translation(f, ctx["vocab"], strict_names=True)
        problems = []
        if report.agreement != item.expected:
            problems.append(f"agreement {report.agreement}, expected {item.expected}")
        for d in report.directions:
            if d.outcome == "sat" and not d.verified:
                problems.append(f"{d.direction} model failed cross-verification")
            if d.model is None:
                continue
            if d.direction == "v1":
                ok = naive.naive_is_model_v1(sp.v1_structure_from_dict(d.model), f)
            else:
                ok = naive.naive_is_model(sp.fosl_structure_from_dict(d.model), translation)
            if not ok:
                problems.append(f"{d.direction} model rejected by the reference evaluator")
        return problems, sp.formula_size(translation)


# ---------------------------------------------------------------------------
# solve_v1
# ---------------------------------------------------------------------------

class SolveV1:
    """find_v1_model on generated corpus sentences given as text."""

    pool, block = "solve_v1", 200

    @staticmethod
    def cost(row) -> float:
        return row[2]  # [seed, verdict, ms]

    def build(self, sp, seed: int) -> tuple[dict, list[Item]]:
        vocab = corpus_vocab(sp)
        ctx = {"vocab": vocab, "bounds": solve_v1_bounds(sp)}
        items = []
        for row in pick_block(load_pool(self.pool)["rows"], self.cost, seed):
            f = sp.generate_formula(vocab, row[0], CORPUS_DEPTH)
            items.append(Item(row[0], row[1], (sp.print_formula(f),), sp.formula_size(f),
                              self.cost(row)))
        return ctx, items

    def run(self, sp, ctx, item: Item):
        f = sp.parse_formula(item.inputs[0], ctx["vocab"])
        return f, sp.find_v1_model(ctx["vocab"], f, ctx["bounds"])

    def check(self, sp, naive, ctx, item: Item, out) -> tuple[list[str], None]:
        f, outcome = out
        verdict = {"ModelFound": "sat", "ExhaustedUnsat": "unsat"}.get(
            type(outcome).__name__, "timeout"
        )
        if verdict != item.expected:
            return [f"verdict {verdict}, expected {item.expected}"], None
        if verdict == "sat" and not naive.naive_is_model_v1(outcome.structure, f):
            return ["model rejected by the reference evaluator"], None
        return [], None


# ---------------------------------------------------------------------------
# check_translate
# ---------------------------------------------------------------------------

class CheckTranslate:
    """No search: the parser, both evaluators and the translation."""

    pool, block = "check_translate", 700

    @staticmethod
    def cost(row) -> float:
        return row[3]  # [seed, fosl verdict, v1 verdict, ms]

    def build(self, sp, seed: int) -> tuple[dict, list[Item]]:
        fv, vv = ct_fosl_vocab(sp), ct_v1_vocab(sp)
        fb, vb = ct_fosl_bounds(sp), ct_v1_bounds(sp)
        ctx = {"fosl_vocab": fv, "v1_vocab": vv, "fosl_structure_bounds": fb,
               "v1_structure_bounds": vb}
        items = []
        for row in pick_block(load_pool(self.pool)["rows"], self.cost, seed):
            s = row[0]
            f = sp.generate_formula(fv, s, CT_DEPTH)
            h = sp.generate_formula(vv, s, CT_DEPTH)
            inputs = (f, sp.generate_fosl_structure(fv, s, fb), h,
                      sp.generate_v1_structure(vv, s, vb))
            items.append(Item(s, (bool(row[1]), bool(row[2])), inputs,
                              sp.formula_size(f) + sp.formula_size(h), self.cost(row)))
        return ctx, items

    @staticmethod
    def pipeline(sp, ctx, f, m, h, mv):
        g = sp.parse_formula(sp.print_formula(f), ctx["fosl_vocab"])
        fosl_verdict = sp.is_model(m, g)
        v1_verdict = sp.is_model_v1(mv, h)
        translation = sp.full_translation(h, ctx["v1_vocab"])
        lifted = sp.lift_model(mv)
        lifted_verdict = sp.is_model(lifted, translation)
        lowered = sp.lower_model(lifted, ctx["v1_vocab"])
        return g, fosl_verdict, v1_verdict, translation, lifted, lifted_verdict, lowered

    def run(self, sp, ctx, item: Item):
        return self.pipeline(sp, ctx, *item.inputs)

    def check(self, sp, naive, ctx, item: Item, out) -> tuple[list[str], int]:
        f, m, h, mv = item.inputs
        g, fosl_verdict, v1_verdict, translation, lifted, lifted_verdict, lowered = out
        problems = []
        if g != f:
            problems.append("print/parse round trip changed the formula")
        if (fosl_verdict, v1_verdict) != item.expected:
            problems.append(f"verdicts {(fosl_verdict, v1_verdict)}, expected {item.expected}")
        if lifted_verdict != v1_verdict:
            problems.append("lift correspondence broken")
        if naive.naive_is_model(m, g) != fosl_verdict:
            problems.append("is_model disagrees with the reference evaluator")
        if naive.naive_is_model_v1(mv, h) != v1_verdict:
            problems.append("is_model_v1 disagrees with the reference evaluator")
        if naive.naive_is_model(lifted, translation) != lifted_verdict:
            problems.append("lifted is_model disagrees with the reference evaluator")
        if sp.v1_structure_to_dict(lowered) != sp.v1_structure_to_dict(mv):
            problems.append("lower_model(lift_model(m)) differs from m")
        return problems, sp.formula_size(translation)


WORKLOADS = {
    "equisat_corpus": Equisat("equisat_corpus", 400),
    "equisat_hard": Equisat("equisat_hard", 3, anchor=167),
    "solve_v1": SolveV1(),
    "check_translate": CheckTranslate(),
}
