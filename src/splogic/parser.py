"""Concrete syntax: tokenizer, recursive-descent parser and printer.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError, nesting_guard
from .syntax import (
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

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<VAR>\?[a-z][A-Za-z0-9_]*)
  | (?P<WORD>[A-Za-z][A-Za-z0-9_]*)
  | (?P<IFF><->)
  | (?P<IMPL>->)
  | (?P<NEQ>!=)
  | (?P<PUNCT>[()\[\],&|!<>=.*])
    """,
    re.VERBOSE,
)

_KEYWORDS = ("forall", "exists", "true", "false")


@dataclass(frozen=True)
class _Token:
    kind: str  # VAR | PRED | IDENT | keyword text | punctuation text
    text: str
    pos: int


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos, text[pos])
        kind = m.lastgroup
        tok = m.group()
        if kind == "WORD":
            if tok in _KEYWORDS:
                kind = tok
            elif tok[0].isupper():
                kind = "PRED"
            else:
                kind = "IDENT"
        elif kind == "VAR":
            pass
        elif kind != "WS":
            kind = tok
        if kind != "WS":
            tokens.append(_Token(kind, tok, pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError(f"expected {kind!r}, found end of input", len(self.text))
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {tok.text!r}", tok.pos, tok.text)
        return self.next()

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    # ---- grammar ----

    def formula(self) -> Formula:
        return self._right_chain(self.impl, "<->", iff)

    def impl(self) -> Formula:
        return self._right_chain(self.or_level, "->", implies)

    def or_level(self) -> Formula:
        return self._right_chain(self.and_level, "|", or_)

    def and_level(self) -> Formula:
        return self._right_chain(self.unary, "&", And)

    def _right_chain(self, sub, op, build) -> Formula:
        parts = [sub()]
        while self.at(op):
            self.next()
            parts.append(sub())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = build(part, out)
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("expected a formula, found end of input", len(self.text))
        if tok.kind == "!":
            self.next()
            return Not(self.unary())
        if tok.kind == "[":
            self.next()
            sp = self.standpoint()
            self.expect("]")
            return Box(sp, self.unary())
        if tok.kind == "<":
            self.next()
            sp = self.standpoint()
            self.expect(">")
            return diamond(sp, self.unary())
        if tok.kind in ("forall", "exists"):
            self.next()
            var = self.expect("VAR").text[1:]
            if self.at("."):
                self.next()
            body = self.unary()
            return Forall(var, body) if tok.kind == "forall" else exists(var, body)
        return self.atom()

    def standpoint(self) -> str:
        tok = self.next()
        if tok.kind in ("IDENT", "*"):
            return tok.text
        raise FormulaSyntaxError(
            f"expected a standpoint symbol, found {tok.text!r}", tok.pos, tok.text
        )

    def atom(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("expected an atom, found end of input", len(self.text))
        if tok.kind == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind == "true":
            self.next()
            return truth()
        if tok.kind == "false":
            self.next()
            return falsity()
        if tok.kind == "PRED":
            self.next()
            if self.at("("):
                return Atom(tok.text, self.arg_list())
            if self.at("=") or self.at("!="):
                raise FormulaSyntaxError(
                    f"predicate {tok.text!r} cannot appear in an equality", tok.pos, tok.text
                )
            return Atom(tok.text)
        if tok.kind == "IDENT" and self._lookahead_is("("):
            # lowercase predicate application (translation-introduced symbols)
            self.next()
            return Atom(tok.text, self.arg_list())
        # otherwise this must be an equality between terms
        left = self.term()
        op = self.peek()
        if op is not None and op.kind == "=":
            self.next()
            return Equal(left, self.term())
        if op is not None and op.kind == "!=":
            self.next()
            return Not(Equal(left, self.term()))
        where = op.pos if op is not None else len(self.text)
        what = op.text if op is not None else "end of input"
        raise FormulaSyntaxError(f"expected '=' or '!=', found {what!r}", where,
                                 op.text if op else None)

    def _lookahead_is(self, kind: str) -> bool:
        j = self.i + 1
        return j < len(self.tokens) and self.tokens[j].kind == kind

    def arg_list(self) -> tuple[Term, ...]:
        self.expect("(")
        args = [self.term()]
        while self.at(","):
            self.next()
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self) -> Term:
        tok = self.next()
        if tok.kind == "VAR":
            return Var(tok.text[1:])
        if tok.kind == "IDENT":
            return Const(tok.text)
        raise FormulaSyntaxError(f"expected a term, found {tok.text!r}", tok.pos, tok.text)


def parse_raw(text: str) -> Formula:
    """Parse without vocabulary checks; result uses only the six core nodes."""
    p = _Parser(text)
    try:
        f = p.formula()
    except RecursionError:
        # each nesting level costs several frames of the descent
        tok = p.peek()
        where = tok.pos if tok is not None else len(text)
        raise FormulaSyntaxError("formula nested too deeply", where) from None
    trailing = p.peek()
    if trailing is not None:
        raise FormulaSyntaxError(
            f"unexpected trailing input {trailing.text!r}", trailing.pos, trailing.text
        )
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
        return f"{_child(f.left, _UNARY)} & {_child(f.right, _AND)}", _AND
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
