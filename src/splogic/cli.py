"""Command-line front end.

Commands: check, translate, solve, equisat, monodic, generate.
Exit codes: 0 success/holds, 1 fails/unsat/not-monodic, 2 parse or
validation error, 3 timeout.  Reports are deterministic for identical
inputs except for elapsed-time fields.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import SplError, VocabularyError, check_shape, load_json
from .finder import (
    Bounds,
    ExhaustedUnsat,
    ModelFound,
    equisat_check,
    find_fosl_model,
    find_v1_model,
)
from .fosl import (
    fosl_structure_to_dict,
    load_fosl_model,
    satisfies_at,
    vocabulary_of_fosl_model,
)
from .generate import generate_formula
from .parser import parse_formula, print_formula
from .syntax import (
    FoslVocabulary,
    V1Vocabulary,
    is_monodic,
    make_fosl_vocabulary,
    make_v1_vocabulary,
)
from .translate import _report, full_translation
from .v1 import (
    load_v1_model,
    satisfies_at_v1,
    v1_structure_to_dict,
    vocabulary_of_v1_model,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_TIMEOUT = 3


def read_formula_file(path: str) -> str:
    """Formula files may contain '#'-comments and span several lines; a
    file that is not UTF-8 raises SplError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.split("#", 1)[0] for line in fh]
    except UnicodeDecodeError as exc:
        raise SplError(f"{path}: {exc}") from None
    return " ".join(line.strip() for line in lines).strip()


# the keys of each logic's vocabulary file: symbol lists and arity
# tables; make_*_vocabulary checks the arities
_VOCAB_SHAPES = {
    "fosl": {"logic": str, "predicates": {str: None}, "constants": [str], "standpoints": [str]},
    "v1": {"logic": str, "sortals": [str], "indefinite": {str: None},
           "precise": {str: None}, "names": [str], "standpoints": [str]},
}


def load_vocabulary(path: str):
    return load_json(path, VocabularyError, _vocabulary_from_dict)


def _vocabulary_from_dict(data):
    check_shape(data, {str: None}, VocabularyError, "vocabulary")
    logic = data.get("logic")
    if logic not in ("fosl", "v1"):  # compared, not hashed: any JSON value
        raise SplError(f"vocabulary file must declare \"logic\": \"fosl\" or \"v1\", got {logic!r}")
    check_shape(data, _VOCAB_SHAPES[logic], VocabularyError, "vocabulary")
    if logic == "fosl":
        return make_fosl_vocabulary(
            data.get("predicates", {}),
            data.get("constants", []),
            data.get("standpoints", []),
        )
    return make_v1_vocabulary(
        data.get("sortals", []),
        data.get("indefinite", {}),
        data.get("precise", {}),
        data.get("names", []),
        data.get("standpoints", []),
    )


def parse_bounds(text: str, timeout: float, no_symmetry: bool) -> Bounds:
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 2:
        dmax, pmax = parts
        emax, imax = dmax, dmax
    elif len(parts) == 4:
        dmax, pmax, emax, imax = parts
    else:
        raise SplError("--bounds expects dmax,pmax or dmax,pmax,emax,imax")
    return Bounds(
        max_domain=dmax,
        max_precisifications=pmax,
        max_entities=emax,
        max_individuals=imax,
        timeout=timeout,
        symmetry_reduction=not no_symmetry,
    )


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_check(args) -> int:
    if args.flavor == "fosl":
        model = load_fosl_model(args.model)
        vocab = vocabulary_of_fosl_model(model)
        f = parse_formula(read_formula_file(args.formula), vocab)
        verdicts = {pi: satisfies_at(model, pi, f) for pi in model.precisifications}
    else:
        model = load_v1_model(args.model)
        vocab = vocabulary_of_v1_model(model)
        f = parse_formula(read_formula_file(args.formula), vocab)
        verdicts = {pi: satisfies_at_v1(model, pi, f) for pi in model.precisifications}
    # a model is one that satisfies the sentence at every precisification
    global_verdict = all(verdicts.values())
    for pi, ok in verdicts.items():
        print(f"{pi}: {'satisfied' if ok else 'not satisfied'}")
    print(f"global: {'model' if global_verdict else 'not a model'}")
    return EXIT_OK if global_verdict else EXIT_NEGATIVE


def cmd_translate(args) -> int:
    vocab = load_vocabulary(args.vocab)
    if not isinstance(vocab, V1Vocabulary):
        raise SplError("translate requires a v1 vocabulary")
    f = parse_formula(read_formula_file(args.formula), vocab)
    translated = full_translation(f, vocab)
    _write_or_print(print_formula(translated) + "\n", args.out)
    if args.report:
        report = _report(f, translated)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_solve(args) -> int:
    vocab = load_vocabulary(args.vocab)
    f = parse_formula(read_formula_file(args.formula), vocab)
    bounds = parse_bounds(args.bounds, args.timeout, args.no_symmetry)
    if args.flavor == "fosl":
        if not isinstance(vocab, FoslVocabulary):
            raise SplError("--flavor fosl requires a fosl vocabulary")
        outcome = find_fosl_model(vocab, f, bounds)
        to_dict = fosl_structure_to_dict
    else:
        if not isinstance(vocab, V1Vocabulary):
            raise SplError("--flavor v1 requires a v1 vocabulary")
        outcome = find_v1_model(vocab, f, bounds)
        to_dict = v1_structure_to_dict
    if isinstance(outcome, ModelFound):
        print(f"sat ({outcome.elapsed:.2f}s)")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(to_dict(outcome.structure), fh, indent=2, sort_keys=True)
                fh.write("\n")
        return EXIT_OK
    if isinstance(outcome, ExhaustedUnsat):
        print(f"unsat within bounds ({outcome.elapsed:.2f}s)")
        return EXIT_NEGATIVE
    print(f"timeout ({outcome.elapsed:.2f}s)")
    return EXIT_TIMEOUT


def cmd_equisat(args) -> int:
    vocab = load_vocabulary(args.vocab)
    if not isinstance(vocab, V1Vocabulary):
        raise SplError("equisat requires a v1 vocabulary")
    f = parse_formula(read_formula_file(args.formula), vocab)
    bounds = parse_bounds(args.bounds, args.timeout, args.no_symmetry)
    report = equisat_check(vocab, f, bounds)
    data = report.to_dict()
    if args.out:
        # found models go to sidecar files; the report references them
        for entry in data["directions"]:
            model = entry.pop("model", None)
            if model is not None:
                path = f"{args.out}.{entry['direction']}-model.json"
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(model, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                entry["model_path"] = path
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    _write_or_print(text, args.out)
    if report.agreement in ("sat", "unsat"):
        return EXIT_OK
    if report.agreement == "inconclusive":
        return EXIT_TIMEOUT
    return EXIT_NEGATIVE


def cmd_monodic(args) -> int:
    vocab = load_vocabulary(args.vocab)
    f = parse_formula(read_formula_file(args.formula), vocab)
    verdict = is_monodic(f)
    print("true" if verdict else "false")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_generate(args) -> int:
    for option in ("depth", "count"):
        if getattr(args, option) < 1:
            raise SplError(f"--{option} must be at least 1")
    vocab = load_vocabulary(args.vocab)
    for i in range(args.count):
        f = generate_formula(vocab, args.seed + i, args.depth)
        print(print_formula(f))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splogic",
        description="Standpoint logic and variable reference logic toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, vocab=True, bounds=False):
        p.add_argument("--formula", required=True, help="formula file")
        if vocab:
            p.add_argument("--vocab", required=True, help="vocabulary JSON file")
        if bounds:
            p.add_argument("--bounds", default="3,2,2,2",
                           help="dmax,pmax[,emax,imax]")
            p.add_argument("--timeout", type=float, default=60.0,
                           help="seconds per search")
            p.add_argument("--no-symmetry", action="store_true",
                           help="disable symmetry reduction; the v1 search does not read it")

    p = sub.add_parser("check", help="evaluate a formula against a model file")
    p.add_argument("--formula", required=True)
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--flavor", choices=("fosl", "v1"), required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("translate", help="emit the full translation of a v1 formula")
    add_common(p)
    p.add_argument("--out", default=None, help="output formula file")
    p.add_argument("--report", default=None, help="sidecar JSON report path")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("solve", help="bounded model search")
    add_common(p, bounds=True)
    p.add_argument("--flavor", choices=("fosl", "v1"), required=True)
    p.add_argument("--out", default=None, help="write the found model here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("equisat", help="two-sided equisatisfiability check")
    add_common(p, bounds=True)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_equisat)

    p = sub.add_parser("monodic", help="test the monodic fragment condition")
    add_common(p)
    p.set_defaults(func=cmd_monodic)

    p = sub.add_parser("generate", help="emit seeded random formulas")
    p.add_argument("--vocab", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SplError, OSError, ValueError) as exc:  # ValueError covers bad settings
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
