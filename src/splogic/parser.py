"""Concrete syntax: tokenizer, precedence parser and printer.

Grammar (whitespace-insensitive, binary operators right-associative)::

    formula := iff
    iff     := impl ("<->" impl)*
    impl    := or ("->" or)*
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "[" sp "]" unary | "<" sp ">" unary
             | "forall" VAR ["."] unary | "exists" VAR ["."] unary | atom
    atom    := PRED "(" term ("," term)* ")" | PRED
             | term "=" term | term "!=" term
             | "true" | "false" | "(" formula ")"
    sp      := IDENT | "*"
    term    := VAR | IDENT

    VAR   = "?" [a-z][A-Za-z0-9_]*      PRED = [A-Z][A-Za-z0-9_]*
    IDENT = [a-z][A-Za-z0-9_]*

An IDENT directly followed by "(" is parsed as a predicate application;
this admits the four lowercase predicates the translation introduces
(ind, ext, ink, prec), which are ordinary declared predicates there.
The dot after a quantified variable is optional.

One compiled pattern cuts the text into (kind, text, position) tuples,
and one precedence loop (Pratt 1973, "Top down operator precedence")
parses the four binary levels, keeping a chain's operands on a list, so
a conjunction of any length costs no recursion.  Prefixes and
parentheses recurse, so Python's recursion limit is the nesting limit.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError, nesting_guard
from .syntax import (
    KEYWORDS,
    And,
    Atom,
    Box,
    Const,
    Equal,
    Forall,
    Formula,
    Not,
    Term,
    Var,
    Vocabulary,
    diamond,
    exists,
    falsity,
    iff,
    implies,
    or_,
    truth,
    validate_formula,
)

# One token per match, after the whitespace before it; group 2 holds a
# character that starts no token.
_TOKEN_RE = re.compile(
    r"\s*(?:(\?[a-z][A-Za-z0-9_]*|[A-Za-z][A-Za-z0-9_]*|<->|->|!=|[()\[\],&|!<>=.*])|(\S))"
)

# A keyword or punctuation token is its own kind; any other is VAR,
# PRED or IDENT by its first character.
_KINDS = {t: t for t in (*KEYWORDS, "<->", "->", "!=", *"()[],&|!<>=.*")}

_END = "end of input"  # kind and text of the token after the last

# Binary operators: precedence (higher binds tighter) and constructor.
_BINARY = {"<->": (0, iff), "->": (1, implies), "|": (2, or_), "&": (3, And)}


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of text, left to right."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok = m[1]
        if tok is None:
            raise FormulaSyntaxError(f"unexpected character {m[2]!r}", m.start(2), m[2])
        kind = _KINDS.get(tok)
        if kind is None:
            kind = "VAR" if tok[0] == "?" else "PRED" if tok[0].isupper() else "IDENT"
        tokens.append((kind, tok, m.start(1)))
    return tokens


def _error(message: str, tok: tuple[str, str, int]) -> FormulaSyntaxError:
    """A syntax error at tok; the end of input carries no token."""
    kind, text, pos = tok
    return FormulaSyntaxError(message, pos, None if kind == _END else text)


def _unexpected(tok: tuple[str, str, int], what: str) -> FormulaSyntaxError:
    """The error for tok where a symbol (what) was expected."""
    if tok[0] == _END:
        return FormulaSyntaxError("unexpected end of input", tok[2])
    return _error(f"expected {what}, found {tok[1]!r}", tok)


def parse_raw(text: str) -> Formula:
    """Parse without vocabulary checks; result uses only the six core nodes."""
    tokens = tokenize(text)
    tokens.append((_END, _END, len(text)))
    i = 0

    def formula() -> Formula:
        # operands and the operators between them; an operator reduces
        # those before it that bind tighter, and the end reduces the rest
        nonlocal i
        operands, ops = [unary()], []
        while True:
            op = _BINARY.get(tokens[i][0])
            level = op[0] if op is not None else -1
            while ops and ops[-1][0] > level:
                build = ops.pop()[1]
                right = operands.pop()
                operands[-1] = build(operands[-1], right)
            if op is None:
                return operands[0]
            i += 1
            ops.append(op)
            operands.append(unary())

    def unary() -> Formula:
        nonlocal i
        kind, tok, pos = tokens[i]
        i += 1
        if kind == "PRED":
            after = tokens[i][0]
            if after == "(":
                return Atom(tok, arguments())
            if after == "=" or after == "!=":
                raise FormulaSyntaxError(
                    f"predicate {tok!r} cannot appear in an equality", pos, tok
                )
            return Atom(tok)
        if kind == "!":
            return Not(unary())
        if kind == "(":
            f = formula()
            expect(")")
            return f
        if kind == "[" or kind == "<":
            sp = tokens[i]
            if sp[0] != "IDENT" and sp[0] != "*":
                raise _unexpected(sp, "a standpoint symbol")
            i += 1
            expect("]" if kind == "[" else ">")
            body = unary()
            return Box(sp[1], body) if kind == "[" else diamond(sp[1], body)
        if kind == "forall" or kind == "exists":
            var = tokens[i][1][1:]
            expect("VAR")
            if tokens[i][0] == ".":
                i += 1
            body = unary()
            return Forall(var, body) if kind == "forall" else exists(var, body)
        if kind == "true":
            return truth()
        if kind == "false":
            return falsity()
        if kind == _END:
            raise FormulaSyntaxError("expected a formula, found end of input", pos)
        if kind == "IDENT" and tokens[i][0] == "(":
            # lowercase predicate application (translation-introduced symbols)
            return Atom(tok, arguments())
        # otherwise this must be an equality between terms
        i -= 1
        left = term()
        op = tokens[i]
        if op[0] == "=" or op[0] == "!=":
            i += 1
            eq = Equal(left, term())
            return eq if op[0] == "=" else Not(eq)
        raise _error(f"expected '=' or '!=', found {op[1]!r}", op)

    def expect(kind: str) -> None:
        nonlocal i
        tok = tokens[i]
        if tok[0] != kind:
            found = _END if tok[0] == _END else repr(tok[1])
            raise _error(f"expected {kind!r}, found {found}", tok)
        i += 1

    def term() -> Term:
        nonlocal i
        tok = tokens[i]
        if tok[0] == "VAR":
            i += 1
            return Var(tok[1][1:])
        if tok[0] == "IDENT":
            i += 1
            return Const(tok[1])
        raise _unexpected(tok, "a term")

    def arguments() -> tuple[Term, ...]:
        # the terms between the "(" at i and its ")"
        nonlocal i
        args = []
        while True:
            i += 1  # past the "(" or ","
            args.append(term())
            if tokens[i][0] != ",":
                expect(")")
                return tuple(args)

    try:
        f = formula()
    except RecursionError:
        # each level of nesting costs a frame or two of the descent
        raise FormulaSyntaxError("formula nested too deeply", tokens[i][2]) from None
    if tokens[i][0] != _END:
        raise _error(f"unexpected trailing input {tokens[i][1]!r}", tokens[i])
    return f


def parse_formula(text: str, vocab: Vocabulary) -> Formula:
    """Parse and validate against a vocabulary; returns a desugared AST."""
    f = parse_raw(text)
    validate_formula(f, vocab)
    return f


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------
#
# The printer re-sugars the patterns the parser produces for <->, ->, |,
# !=, exists and the diamond, so translated output stays readable.  Every
# emitted string parses back to the exact AST it was printed from.

_IFF, _IMPL, _OR, _AND, _UNARY, _ATOM = range(6)


def _term_str(t: Term) -> str:
    return str(t)


def _as_iff(f: Formula) -> tuple[Formula, Formula] | None:
    # And(!(a & !b), !(b & !a))  ==>  a <-> b
    if not (isinstance(f, And) and isinstance(f.left, Not) and isinstance(f.right, Not)):
        return None
    l, r = f.left.body, f.right.body
    if not (isinstance(l, And) and isinstance(l.right, Not)
            and isinstance(r, And) and isinstance(r.right, Not)):
        return None
    a, b = l.left, l.right.body
    if r.left == b and r.right.body == a:
        return a, b
    return None


def _render(f: Formula) -> tuple[str, int]:
    """Render f, returning its text and the precedence of its top operator."""
    if isinstance(f, Atom):
        if f.args:
            return f"{f.pred}({', '.join(_term_str(t) for t in f.args)})", _ATOM
        return f.pred, _ATOM
    if isinstance(f, Equal):
        return f"{_term_str(f.left)} = {_term_str(f.right)}", _ATOM
    if isinstance(f, And):
        halves = _as_iff(f)
        if halves is not None:
            a, b = halves
            return f"{_child(a, _IMPL)} <-> {_child(b, _IFF)}", _IFF
        # a conjunction's right spine costs no recursion
        parts = []
        while True:
            parts.append(_child(f.left, _UNARY))
            f = f.right
            if not isinstance(f, And) or _as_iff(f) is not None:
                parts.append(_child(f, _AND))
                return " & ".join(parts), _AND
    if isinstance(f, Not):
        body = f.body
        if isinstance(body, Box) and isinstance(body.body, Not):
            return f"<{body.standpoint}> {_child(body.body.body, _UNARY)}", _UNARY
        if isinstance(body, Forall) and isinstance(body.body, Not):
            return f"exists ?{body.var} {_child(body.body.body, _UNARY)}", _UNARY
        if isinstance(body, Equal):
            return f"{_term_str(body.left)} != {_term_str(body.right)}", _ATOM
        if isinstance(body, And):
            if isinstance(body.left, Not) and isinstance(body.right, Not):
                # !(!a & !b)  ==>  a | b
                return (
                    f"{_child(body.left.body, _AND)} | {_child(body.right.body, _OR)}",
                    _OR,
                )
            if isinstance(body.right, Not):
                # !(a & !b)  ==>  a -> b
                return (
                    f"{_child(body.left, _OR)} -> {_child(body.right.body, _IMPL)}",
                    _IMPL,
                )
        return f"!{_child(body, _UNARY)}", _UNARY
    if isinstance(f, Forall):
        return f"forall ?{f.var} {_child(f.body, _UNARY)}", _UNARY
    if isinstance(f, Box):
        return f"[{f.standpoint}] {_child(f.body, _UNARY)}", _UNARY
    raise TypeError(f"not a formula: {f!r}")


def _child(f: Formula, required: int) -> str:
    text, level = _render(f)
    return f"({text})" if level < required else text


@nesting_guard
def print_formula(f: Formula) -> str:
    """Canonical text for f; parsing the result reproduces f exactly."""
    return _render(f)[0]
