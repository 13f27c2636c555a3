"""Formula and sequent syntax.

ASCII connectives, from tightest to loosest binding:

    ~ f          negation (classical or linear by context)
    f * g, f & g tensor, with
    f + g, f | g plus, parr
    f /\\ g       and
    f \\/ g       or
    f -> g       implication (classical, defined as ~f \\/ g)

All binary connectives are left-associative; parentheses override.
Sequents are written ``f1, f2 |- g1, g2`` and either side may be empty.

A formula tree may be at most ``MAX_DEPTH`` connectives deep, and its
parentheses may nest at most ``MAX_DEPTH`` deep: evaluation, rendering and
NMMS unfolding recurse once per level, and the parser once per parenthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"column {pos + 1}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Neg(Formula):
    sub: Formula


@dataclass(frozen=True)
class Bin(Formula):
    op: str
    left: Formula
    right: Formula


CLASSICAL_OPS = frozenset({"and", "or", "imp"})
LINEAR_OPS = frozenset({"tensor", "plus", "parr", "with"})

_OP_SYMBOL = {
    "and": "/\\", "or": "\\/", "imp": "->",
    "tensor": "*", "plus": "+", "parr": "|", "with": "&",
}

# Binding levels, loosest first; each entry maps surface symbol -> op name.
_BIN_LEVELS = (
    {"->": "imp"},
    {"\\/": "or"},
    {"/\\": "and"},
    {"+": "plus", "|": "parr"},
    {"*": "tensor", "&": "with"},
)
_LEVEL_OF = {op: lvl for lvl, table in enumerate(_BIN_LEVELS) for op in table.values()}

MAX_DEPTH = 64


def binary_ops(f: Formula) -> frozenset[str]:
    """All binary connective names occurring in the formula."""
    if isinstance(f, Atom):
        return frozenset()
    if isinstance(f, Neg):
        return binary_ops(f.sub)
    assert isinstance(f, Bin)
    return binary_ops(f.left) | binary_ops(f.right) | {f.op}


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset({f.name})
    if isinstance(f, Neg):
        return atoms_of(f.sub)
    assert isinstance(f, Bin)
    return atoms_of(f.left) | atoms_of(f.right)


def depth(f: Formula) -> int:
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Neg):
        return 1 + depth(f.sub)
    assert isinstance(f, Bin)
    return 1 + max(depth(f.left), depth(f.right))


def render(f: Formula) -> str:
    """Formula text with the fewest parentheses that re-parse identically."""

    def go(g: Formula, parent_level: int) -> str:
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, Neg):
            return "~" + go(g.sub, len(_BIN_LEVELS))
        assert isinstance(g, Bin)
        level = _LEVEL_OF[g.op]
        # Left-associative: the right child needs parens at equal level.
        text = f"{go(g.left, level)} {_OP_SYMBOL[g.op]} {go(g.right, level + 1)}"
        if level < parent_level:
            return f"({text})"
        return text

    return go(f, 0)


def render_sequent(lhs: tuple[Formula, ...], rhs: tuple[Formula, ...]) -> str:
    left = ", ".join(render(f) for f in lhs)
    right = ", ".join(render(f) for f in rhs)
    return f"{left} |- {right}".strip()


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # ident | sym | end
    text: str
    pos: int


_SYMBOLS = ("|-", "/\\", "\\/", "->", "~", "*", "+", "|", "&", "(", ")", ",")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, i))
                i += len(sym)
                break
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.parens = 0  # the '(' being read

    def bounded(self, depth: int, tok: _Token) -> int:
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nests deeper than {MAX_DEPTH} levels", tok.pos)
        return depth

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        tok = self.advance()
        if tok.kind != "sym" or tok.text != sym:
            raise FormulaSyntaxError(f"expected {sym!r}", tok.pos)

    def formula(self, level: int = 0) -> tuple[Formula, int]:
        """The formula read at binding ``level``, and its depth."""
        if level == len(_BIN_LEVELS):
            return self.unary()
        table = _BIN_LEVELS[level]
        node, depth = self.formula(level + 1)
        while self.peek().kind == "sym" and self.peek().text in table:
            tok = self.advance()
            right, right_depth = self.formula(level + 1)
            node = Bin(table[tok.text], node, right)
            depth = self.bounded(max(depth, right_depth) + 1, tok)
        return node, depth

    def unary(self) -> tuple[Formula, int]:
        negations = []
        while self.peek().kind == "sym" and self.peek().text == "~":
            negations.append(self.advance())
        tok = self.advance()
        if tok.kind == "sym" and tok.text == "(":
            self.parens = self.bounded(self.parens + 1, tok)
            node, depth = self.formula()
            self.expect_sym(")")
            self.parens -= 1
        elif tok.kind == "ident":
            node, depth = Atom(tok.text), 0
        else:
            raise FormulaSyntaxError(
                f"expected a formula, found {tok.text!r}" if tok.text else "unexpected end of input",
                tok.pos,
            )
        for neg in reversed(negations):
            node, depth = Neg(node), self.bounded(depth + 1, neg)
        return node, depth

    def formula_list(self, stop: str) -> tuple[Formula, ...]:
        out = []
        tok = self.peek()
        if tok.kind == "end" or (tok.kind == "sym" and tok.text == stop):
            return ()
        out.append(self.formula()[0])
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.advance()
            out.append(self.formula()[0])
        return tuple(out)


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    node, _ = parser.formula()
    tail = parser.peek()
    if tail.kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return node


def parse_sequent(text: str) -> tuple[tuple[Formula, ...], tuple[Formula, ...]]:
    """Parse ``f1, f2 |- g1, g2``; the bare empty string is the empty sequent."""
    if not text.strip():
        return (), ()
    parser = _Parser(_tokenize(text))
    lhs = parser.formula_list(stop="|-")
    parser.expect_sym("|-")
    rhs = parser.formula_list(stop="")
    tail = parser.peek()
    if tail.kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return lhs, rhs
