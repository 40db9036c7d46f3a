"""Compare the search results of two source trees of splogic.

    python3 tools/compare_searches.py OLD_SRC NEW_SRC
    python3 tools/compare_searches.py --dump SRC > results.json

Each tree runs in its own process and fingerprints six sets of searches
and two with no search:

  corpus   equisat_check on corpus seeds 0-199 at entities 2,
           individuals 2, precisifications 2 (the Tier-1 corpus);
  nameless the same harness on seeds 0-99 over the corpus vocabulary
           without its name, so no axiom forces an individual;
  hard     the same harness on the six sentences of
           bench/data/equisat_hard.json;
  asym     the corpus harness on seeds 0-199 at entities 2, individuals
           1 and at entities 1, individuals 2 (items "asym:E,I:seed"),
           where the backward search's caps bind;
  pool     find_v1_model on the 400 sentences of bench/data/solve_v1.json
           at entities 4, precisifications 2, individuals 3;
  fosl     find_fosl_model on generated sentences of depth 3, seeds
           0-299, over predicates P/1, Q/1, constants a, b and
           standpoint s, at domain 3, precisifications 2;
  eval     no search: on each row of bench/data/check_translate.json,
           the is_model and per-precisification satisfies_at verdicts
           of its standpoint pair, the same verdicts of its V1 pair
           (is_model_v1, satisfies_at_v1) and of the full translation,
           which carries name typing (every name denotes an admitted
           individual), on the lifted model, and lower_model on the
           lifted model and on a generated structure over the translated
           vocabulary (the lowered model, or the label of the violated
           axiom);
  syntax   no search: parse_formula on generated formulas of depths 2-6,
           seeds 0-39, over the corpus vocabulary and both
           check_translate vocabularies (items "syntax:VOCAB,DEPTH:seed"),
           and on three seeded one-character edits of each text (a
           character deleted, one inserted, two neighbours swapped): the
           tree, as print_formula writes it (printing is injective:
           parsing the text gives the tree back), or the error's class,
           message, position and token.

A fingerprint holds every report and outcome, models included, with the
elapsed fields removed, the number of depth-first search calls per set
and per space class (counted around _Space.dfs), and the spaces each set
sets up: V1 spaces built, standpoint spaces built and standpoint spaces
loaded, new or kept (counted around the constructors and
_FoslSpace.load).  The comparison prints, for both trees, the dfs
totals, the spaces set up and each equisat set's tally of agreements
(sat, unsat, discrepancy, inconclusive), then every item that differs
and how many are identical.  It exits 1 when any item or any dfs total
differs, so a change that only alters the search work exits 1 with
every item identical, and 0 only when both trees agree on everything.
The spaces set up are shown but never change the exit status: how a
tree reuses its spaces is not a result.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "bench" / "data"


def _strip_elapsed(data):
    if isinstance(data, dict):
        return {k: _strip_elapsed(v) for k, v in data.items()
                if k not in ("elapsed", "elapsed_ms")}
    if isinstance(data, list):
        return [_strip_elapsed(v) for v in data]
    return data


def dump() -> dict:
    import splogic as sp
    from splogic import finder

    sys.path.insert(0, str(DATA.parent))
    import workloads

    counts: dict[str, int] = {}
    set_up: dict[str, int] = {}
    dfs = finder._Space.dfs

    def counted(space, deadline):
        name = type(space).__name__
        counts[name] = counts.get(name, 0) + 1
        return dfs(space, deadline)

    finder._Space.dfs = counted

    def tallied(cls, method: str, event: str) -> None:
        # count the calls of cls.method under "<class> <event>"
        wrapped = getattr(cls, method)
        key = f"{cls.__name__} {event}"

        def call(*args, **kwargs):
            set_up[key] = set_up.get(key, 0) + 1
            return wrapped(*args, **kwargs)

        setattr(cls, method, call)

    tallied(finder._V1Space, "__init__", "built")
    tallied(finder._FoslSpace, "__init__", "built")
    tallied(finder._FoslSpace, "load", "loaded")

    def outcome_item(outcome, to_dict) -> dict:
        item = {"outcome": type(outcome).__name__}
        if isinstance(outcome, sp.ModelFound):
            item["model"] = to_dict(outcome.structure)
        return item

    vocab = sp.make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
    nameless = sp.make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, [], ["s"])
    equisat_bounds = sp.Bounds(max_entities=2, max_individuals=2,
                               max_precisifications=2, timeout=60)
    pool_bounds = sp.Bounds(max_entities=4, max_individuals=3,
                            max_precisifications=2, timeout=60)
    fosl_vocab = sp.make_fosl_vocabulary({"P": 1, "Q": 1}, ["a", "b"], ["s"])
    fosl_bounds = sp.Bounds(max_domain=3, max_precisifications=2, timeout=60)
    hard = [row[0] for row in json.loads((DATA / "equisat_hard.json").read_text())["rows"]]
    pool = [row[0] for row in json.loads((DATA / "solve_v1.json").read_text())["rows"]]
    checks = [row[0] for row in json.loads((DATA / "check_translate.json").read_text())["rows"]]
    asym = {f"{e},{i}:{seed}": (sp.Bounds(max_entities=e, max_individuals=i,
                                          max_precisifications=2, timeout=60), seed)
            for e, i in ((2, 1), (1, 2)) for seed in range(200)}

    syntax_vocabs = {"corpus": vocab, "ct_fosl": workloads.ct_fosl_vocab(sp),
                     "ct_v1": workloads.ct_v1_vocab(sp)}
    syntax = {f"{label},{depth}:{seed}": (label, depth, seed)
              for label in syntax_vocabs for depth in range(2, 7) for seed in range(40)}

    out: dict = {"items": {}, "dfs": {}, "spaces": {}}
    for name, seeds in (("corpus", range(200)), ("nameless", range(100)), ("hard", hard),
                        ("asym", asym), ("pool", pool), ("fosl", range(300)),
                        ("eval", checks), ("syntax", syntax)):
        counts.clear()
        set_up.clear()
        for seed in seeds:
            if name == "eval":
                item = _evaluations(sp, workloads, seed)
            elif name == "syntax":
                label, depth, number = syntax[seed]
                item = _parses(sp, syntax_vocabs[label], depth, number, seed)
            elif name == "fosl":
                f = sp.generate_formula(fosl_vocab, seed, 3)
                item = outcome_item(sp.find_fosl_model(fosl_vocab, f, fosl_bounds),
                                    sp.fosl_structure_to_dict)
            elif name == "pool":
                f = sp.generate_formula(vocab, seed, 4)
                item = outcome_item(sp.find_v1_model(vocab, f, pool_bounds),
                                    sp.v1_structure_to_dict)
            else:
                harness_vocab = nameless if name == "nameless" else vocab
                bounds, number = asym[seed] if name == "asym" else (equisat_bounds, seed)
                f = sp.generate_formula(harness_vocab, number, 4)
                item = sp.equisat_check(harness_vocab, f, bounds).to_dict()
            out["items"][f"{name}:{seed}"] = _strip_elapsed(item)
        out["dfs"][name] = dict(sorted(counts.items()))
        out["spaces"][name] = dict(sorted(set_up.items()))
    return out


def _evaluations(sp, workloads, seed: int) -> dict:
    """The evaluators' answers on the inputs check_translate builds from
    one seed (see bench/workloads.py)."""
    fv, vv = workloads.ct_fosl_vocab(sp), workloads.ct_v1_vocab(sp)
    f = sp.generate_formula(fv, seed, workloads.CT_DEPTH)
    m = sp.generate_fosl_structure(fv, seed, workloads.ct_fosl_bounds(sp))
    h = sp.generate_formula(vv, seed, workloads.CT_DEPTH)
    mv = sp.generate_v1_structure(vv, seed, workloads.ct_v1_bounds(sp))
    lifted = sp.lift_model(mv)
    translation = sp.full_translation(h, vv)
    junk = sp.generate_fosl_structure(sp.translated_vocabulary(vv), seed,
                                      workloads.ct_fosl_bounds(sp))

    def verdicts(model, g, at, every):
        return [every(model, g)] + [at(model, pi, g) for pi in model.precisifications]

    def lowered(model):
        try:
            return sp.v1_structure_to_dict(sp.lower_model(model, vv))
        except sp.AxiomViolationError as exc:
            return exc.axiom_label
        except sp.ModelFormatError as exc:
            return str(exc)

    return {
        "fosl": verdicts(m, f, sp.satisfies_at, sp.is_model),
        "v1": verdicts(mv, h, sp.satisfies_at_v1, sp.is_model_v1),
        "lifted": verdicts(lifted, translation, sp.satisfies_at, sp.is_model),
        "lowered": lowered(lifted),
        "junk": lowered(junk),
    }


# what an edit inserts: the grammar's characters, a space, letters and
# one character no token starts with
_INSERTS = "()[]<>!&|-=.,?* aKns@"


def _parses(sp, vocab, depth: int, seed: int, key: str) -> dict:
    """parse_formula's answer on a generated formula's text and on three
    one-character edits of it, drawn by a generator seeded with key."""
    text = sp.print_formula(sp.generate_formula(vocab, seed, depth))
    rng = random.Random(key)
    cut = rng.randrange(len(text))
    put = rng.randrange(len(text) + 1)
    swap = rng.randrange(len(text) - 1)
    texts = {
        "text": text,
        "delete": text[:cut] + text[cut + 1:],
        "insert": text[:put] + rng.choice(_INSERTS) + text[put:],
        "swap": text[:swap] + text[swap + 1] + text[swap] + text[swap + 2:],
    }
    out = {}
    for edit, edited in texts.items():
        try:
            out[edit] = sp.print_formula(sp.parse_formula(edited, vocab))
        except sp.SplError as exc:
            out[edit] = [type(exc).__name__, str(exc), getattr(exc, "position", None),
                         getattr(exc, "token", None)]
    return out


def _run(src: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", src],
        check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def _agreements(results: dict) -> dict:
    """How many equisat reports of each set (asym split by its bounds,
    "asym:E,I") came out sat, unsat, discrepancy or inconclusive."""
    tallies: dict = {}
    for key, item in results["items"].items():
        if "agreement" in item:
            tally = tallies.setdefault(key.rsplit(":", 1)[0], {})
            tally[item["agreement"]] = tally.get(item["agreement"], 0) + 1
    return tallies


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        sys.path.insert(0, argv[1])
        json.dump(dump(), sys.stdout, sort_keys=True)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (_run(src) for src in argv)
    print("dfs calls, old:", json.dumps(old["dfs"], sort_keys=True))
    print("dfs calls, new:", json.dumps(new["dfs"], sort_keys=True))
    print("spaces set up, old:", json.dumps(old["spaces"], sort_keys=True))
    print("spaces set up, new:", json.dumps(new["spaces"], sort_keys=True))
    print("agreements, old:", json.dumps(_agreements(old), sort_keys=True))
    print("agreements, new:", json.dumps(_agreements(new), sort_keys=True))
    differ = sorted(k for k in old["items"].keys() | new["items"].keys()
                    if old["items"].get(k) != new["items"].get(k))
    for key in differ:
        print("differs:", key)
    print(f"{len(new['items']) - len(differ)} of {len(new['items'])} items identical")
    return 1 if differ or old["dfs"] != new["dfs"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
