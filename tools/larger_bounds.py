"""Run the backward search at the solve_v1 bounds, where it scales worst.

    python3 tools/larger_bounds.py [SRC]

For each of the 400 rows of bench/data/solve_v1.json, build the full
translation with the name-typing axioms of the row's generated sentence
(corpus vocabulary, depth 4) and search it as equisat_check's backward
direction does: the private finder._search_fosl with caps of 4 ext
(entities) and 3 ind (individuals) elements, precisifications up to 2,
domain up to 7, symmetry reduction on and a 20 s timeout.  SRC is the
source tree to import (default: this repository's src).

Prints every row that disagrees with the pool's V1 verdict or times out
(with the last level it started), then the totals: agreements,
disagreements, timeouts, and the CPU time of the sat and of the unsat
rows.  Exits 1 when any row disagrees.  The whole set takes a few
minutes on one core; it is a script, not a Tier-1 test.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
POOL = REPO / "bench" / "data" / "solve_v1.json"
ENTITIES, INDIVIDUALS, PRECISIFICATIONS, DOMAIN, TIMEOUT = 4, 3, 2, 7, 20.0


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0] if argv else str(REPO / "src"))
    import splogic as sp
    from splogic import finder

    # the search builds each level's space through finder._FoslSpace
    levels: list[tuple[int, int]] = []

    class Recorded(finder._FoslSpace):
        def __init__(self, vocab, f, n, m, *args):
            levels.append((n, m))
            super().__init__(vocab, f, n, m, *args)

    finder._FoslSpace = Recorded

    vocab = sp.make_v1_vocabulary(["Kind"], {"Attr": 1}, {"Shape": 1}, ["n"], ["s"])
    trans_vocab = sp.translated_vocabulary(vocab)
    bounds = sp.Bounds(max_domain=DOMAIN, max_precisifications=PRECISIFICATIONS,
                       max_entities=ENTITIES, max_individuals=INDIVIDUALS, timeout=TIMEOUT)
    rows = json.loads(POOL.read_text())["rows"]
    agree = disagree = timeouts = 0
    cpu = {"sat": 0.0, "unsat": 0.0}
    for seed, expected, _ in rows:
        f = sp.full_translation(sp.generate_formula(vocab, seed, 4), vocab)
        levels.clear()
        start = time.process_time()
        outcome = finder._search_fosl(trans_vocab, f, bounds, (ENTITIES, INDIVIDUALS))
        spent = time.process_time() - start
        cpu[expected] += spent
        if isinstance(outcome, sp.SearchTimeout):
            timeouts += 1
            n, m = levels[-1]
            print(f"timeout: row {seed} ({expected}) at level n={n}, m={m}, {spent:.2f} s")
            continue
        verdict = "sat" if isinstance(outcome, sp.ModelFound) else "unsat"
        if verdict == expected:
            agree += 1
        else:
            disagree += 1
            print(f"disagrees: row {seed}, backward {verdict}, V1 {expected}")
    print(f"{agree} agree, {disagree} disagree, {timeouts} time out, of {len(rows)} rows")
    print(f"CPU: sat rows {cpu['sat']:.2f} s, unsat rows {cpu['unsat']:.2f} s")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
