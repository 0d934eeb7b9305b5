"""Reference for ``dsl.parse`` as it was before it built atom terms.

This is the recursive-descent parser that builds a ``Partial`` node for
every derivative and a ``CRat`` coefficient for every term, reading each
token through ``accept`` and ``expect_ident``, with its tokenizer.  It
has learnt one rule since: a `(` that opens a factor opens a sum, unless
the spelling from it is a complex literal without blanks.  Tests
run both parsers over the same sources and compare the canonical forms,
or the class, message, line and column of the error.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Optional, Union

from weylcheck import exprs as ex
from weylcheck.dsl import LagrangianDef
from weylcheck.errors import IndexArityMismatch, ParseError, UndeclaredField
from weylcheck.exprs import (
    Alphabet,
    CRat,
    Expr,
    FieldAtom,
    Index,
    Kind,
    Partial,
    Product,
    Sum,
    Variance,
    canonicalize,
)

_KIND_BY_NAME = {k.value: k for k in (*Kind, *ex.CliffordKind)}

# Derivatives and parentheses nested deeper than this are refused at the
# offending `d` or `(`: every layer that walks an expression tree
# recurses once per level.
_MAX_NESTING = 100
# A term with more factors than this is refused at the atom that passes
# it, before a repetition such as `phi^1000000000` is built.
_MAX_FACTORS = 100_000


# ---------------------------------------------------------------------------
# tokenizer

# Blanks and comments, then one token: a name, a number, a symbol or any
# other character, which no rule accepts, or the empty token at the end.
# `\w` is a character that `str.isalnum` accepts, or `_`; `\d` is a
# decimal digit, which `int` reads.  After the skipped text the token
# pattern always matches, so the skip never gives back a comment.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    ([^\W\d]\w*|\d+|[;,\[\]()*+\-^/]|.|\Z)
""", re.VERBOSE | re.DOTALL)
_SYMBOLS = frozenset(";,[]()*+-^/")
# A `(` that opens a factor and starts this spelling, without blanks, is
# a complex literal; any other opens a parenthesized sum.
_COMPLEX = re.compile(r"\(-?\d+(?:/\d+)?[+-]\d+(?:/\d+)?\*i\)")


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _starts_token(c: str) -> bool:
    """Whether a token may start with c: a letter or `_` (a name), a
    decimal digit (a number) or a symbol, not a numeric character that
    is no decimal digit, such as `²`, nor any other."""
    return _is_name(c) or c.isdecimal() or c in _SYMBOLS


def _tokenize(src: str) -> list[str]:
    """The tokens of a source, ending with the empty token.  The parser
    names a token by its place in the list; ``_position`` finds its line
    and column when an error needs them."""
    toks = _TOKEN.findall(src)
    bad = {tok[0] for tok in set(toks) if tok and not _starts_token(tok[0])}
    if bad:
        k = next(k for k, tok in enumerate(toks) if tok[:1] in bad)
        raise ParseError(f"unexpected character {toks[k][0]!r}",
                         *_position(src, k))
    return toks


def _start(src: str, k: int) -> int:
    """Offset of the k-th token of a source."""
    return next(itertools.islice(_TOKEN.finditer(src), k, None)).start(1)


def _position(src: str, k: int) -> tuple[int, int]:
    """(line, column) of the k-th token of a source."""
    at = _start(src, k)
    return src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at)


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.index_alphabet: dict[str, Alphabet] = {}
        self.fields: set[Kind] = set()
        self.name: Optional[str] = None
        self.density: Optional[Expr] = None
        self.nesting = 0

    def peek(self) -> str:
        return self.toks[self.pos]

    def advance(self) -> int:
        """The place of the next token, stepped over."""
        self.pos += 1
        return self.pos - 1

    def fail(self, msg: str, at: Optional[int] = None, exc=ParseError):
        """Raise at the token in place ``at``, by default the next one."""
        raise exc(msg, *_position(self.src, self.pos if at is None else at))

    def accept(self, s: str) -> bool:
        """Step over the symbol `s` if it comes next; no name or number
        is spelled like a symbol."""
        if self.toks[self.pos] == s:
            self.pos += 1
            return True
        return False

    def expect_sym(self, s: str):
        if not self.accept(s):
            self.fail(f"expected {s!r}")

    def expect_ident(self) -> int:
        if not _is_name(self.peek()):
            self.fail("expected a name")
        return self.advance()

    # -- statements ---------------------------------------------------------

    def run(self) -> tuple[str, Expr, tuple[Kind, ...]]:
        toks = self.toks
        while self.peek():
            head = self.expect_ident()
            if toks[head] == "indices":
                self.stmt_indices()
            elif toks[head] == "fields":
                self.stmt_fields()
            elif toks[head] == "name":
                t = self.expect_ident()
                if self.name is not None:
                    self.fail("duplicate name statement", head)
                # hyphenated names: WORD (- WORD)*
                parts = [toks[t]]
                while self.accept("-"):
                    parts.append(toks[self.expect_ident()])
                self.name = "-".join(parts)
                self.expect_sym(";")
            elif toks[head] == "density":
                if self.density is not None:
                    self.fail("duplicate density statement", head)
                self.density = self.parse_expr()
                self.expect_sym(";")
            else:
                self.fail(f"unknown statement {toks[head]!r}", head)
        if self.density is None:
            self.fail("missing density statement")
        declared = tuple(sorted(self.fields, key=lambda k: k.value))
        return self.name or "user", self.density, declared

    def stmt_indices(self):
        alph_tok = self.expect_ident()
        alph = {"spacetime": Alphabet.SPACETIME,
                "frame": Alphabet.FRAME}.get(self.toks[alph_tok])
        if alph is None:
            self.fail("expected 'spacetime' or 'frame'", alph_tok)
        labels = []
        while not self.accept(";"):
            labels.append(self.expect_ident())
        if not labels:
            self.fail("empty indices statement", alph_tok)
        for t in labels:
            label = self.toks[t]
            if label in self.index_alphabet:
                self.fail(f"index {label!r} declared twice", t)
            self.index_alphabet[label] = alph

    def stmt_fields(self):
        if self.accept(";"):
            self.fail("empty fields statement")
        while not self.accept(";"):
            t = self.expect_ident()
            name = self.toks[t]
            if name == "delta":
                self.fail("delta is internal to the contraction engine", t)
            kind = _KIND_BY_NAME.get(name)
            if not isinstance(kind, Kind):
                self.fail(f"unknown field {name!r}", t, UndeclaredField)
            self.fields.add(kind)

    # -- expressions --------------------------------------------------------

    def sign(self) -> int:
        """1 or -1 after stepping over a `+` or a `-`, 0 for neither."""
        return 1 if self.accept("+") else -1 if self.accept("-") else 0

    def parse_expr(self) -> Expr:
        terms = [self.parse_term(self.sign() or 1)]
        while sign := self.sign():
            terms.append(self.parse_term(sign))
        return Sum(tuple(terms))

    def parse_term(self, sign: int) -> Expr:
        coeff = CRat(sign)
        factors: list[Expr] = []
        while True:
            t = self.pos
            piece = self.parse_factor()
            if isinstance(piece, CRat):
                coeff = coeff * piece
            else:
                factors.extend(piece if isinstance(piece, list) else [piece])
                if len(factors) > _MAX_FACTORS:
                    self.fail(f"more than {_MAX_FACTORS} factors in one "
                              f"term", t)
            if not self.accept("*"):
                return Product(coeff, tuple(factors))

    def parse_factor(self) -> Union[CRat, Expr, list]:
        t = self.peek()
        if t[:1].isdecimal():
            return CRat(self.parse_number("a number"))
        if t == "(":
            at = self.advance()
            if _COMPLEX.match(self.src, _start(self.src, at)):
                return self.parse_complex_literal()
            if self.nesting == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING}",
                          at)
            self.nesting += 1
            inner = self.parse_expr()
            self.nesting -= 1
            self.expect_sym(")")
            return inner
        if _is_name(t):
            if t == "i":
                self.advance()
                return ex.I_UNIT
            if t == "d" and self.toks[self.pos + 1] == "[":
                return self.parse_derivative()
            return self.parse_atom()
        self.fail("expected a factor")

    def parse_number(self, what: str, signed: bool = False,
                     slash: bool = True) -> Fraction:
        """The one number rule, `[-] INT [/ INT]`, with the sign and the
        slash only where the caller allows them; `what` names a missing
        first INT in the message."""
        neg = signed and self.accept("-")
        num, den = self.integer(what), 1
        if slash and self.accept("/"):
            den_t = self.pos
            den = self.integer("a denominator")
            if den == 0:
                self.fail("zero denominator", den_t)
        v = Fraction(num, den)
        return -v if neg else v

    def integer(self, what: str) -> int:
        t = self.advance()
        if not self.toks[t][:1].isdecimal():
            self.fail(f"expected {what}", t)
        try:
            return int(self.toks[t])
        except ValueError:  # more digits than `int` converts
            self.fail("number too long", t)

    def parse_complex_literal(self) -> CRat:
        """`re + im*i)` or `re - im*i)`, the `(` taken."""
        re = self.parse_number("a number", signed=True)
        s = self.sign()
        if not s:
            self.fail("expected '+' or '-' in complex literal")
        im = self.parse_number("a number")
        self.expect_sym("*")
        i_t = self.expect_ident()
        if self.toks[i_t] != "i":
            self.fail("expected 'i'", i_t)
        self.expect_sym(")")
        return CRat(re, s * im)

    def parse_derivative(self) -> Expr:
        d_t = self.advance()
        if self.nesting == _MAX_NESTING:
            self.fail(f"derivatives nested deeper than "
                      f"{_MAX_NESTING}", d_t)
        self.expect_sym("[")
        lab_t = self.expect_ident()
        self.expect_sym("]")
        label = self.toks[lab_t]
        alph = self.index_alphabet.get(label)
        if alph is None:
            self.fail(f"undeclared index {label!r}", lab_t)
        if alph != Alphabet.SPACETIME:
            self.fail("derivative index must be spacetime", lab_t)
        self.expect_sym("(")
        self.nesting += 1
        inner = self.parse_expr()
        self.nesting -= 1
        self.expect_sym(")")
        return Partial(Index(label, Alphabet.SPACETIME, Variance.DOWN), inner)

    def parse_bracket_list(self) -> list[tuple[Optional[int], int]]:
        """`[` labels `]` as (the place of a leading `-` or None, the
        label's place) pairs."""
        out = []
        self.expect_sym("[")
        while True:
            t = self.pos
            out.append((t if self.accept("-") else None, self.expect_ident()))
            if not self.accept(","):
                break
        self.expect_sym("]")
        return out

    def parse_exponent(self) -> Fraction:
        """`k`, `-k` or a signed rational in `(...)`, the `^` taken."""
        if self.accept("("):
            v = self.parse_number("a number", signed=True)
            self.expect_sym(")")
            return v
        return self.parse_number("an exponent", signed=True, slash=False)

    def parse_atom(self) -> Union[Expr, list, CRat]:
        name_t = self.advance()
        name = self.toks[name_t]
        has_brackets = self.peek() == "["

        if name == "delta":
            self.fail("delta is internal to the contraction engine", name_t)

        if name in ex._COUPLINGS and not (name == "g" and has_brackets):
            power = self.parse_exponent() if self.accept("^") else 1
            if power.denominator != 1:
                self.fail("coupling exponents are integers", name_t)
            return ex.coupling(name, int(power))

        kind = _KIND_BY_NAME.get(name)
        if kind is None:
            self.fail(f"unknown field {name!r}", name_t, UndeclaredField)
        if isinstance(kind, Kind) and kind not in self.fields:
            self.fail(f"field {name!r} used but not declared", name_t,
                      UndeclaredField)

        pattern = kind.row.slots
        raw = self.parse_bracket_list() if has_brackets else []
        if len(raw) != len(pattern):
            self.fail(f"{name} takes {len(pattern)} indices, got "
                      f"{len(raw)}", name_t, IndexArityMismatch)
        idxs = []
        for (minus, tok), (alph, var) in zip(raw, pattern):
            # a variance mark is valid where the slot takes either one
            if minus is not None and var is not None:
                self.fail("explicit variance marks are only valid on "
                          "gamma and sigma", minus)
            label = self.toks[tok]
            declared = self.index_alphabet.get(label)
            if declared is None:
                self.fail(f"undeclared index {label!r}", tok)
            if declared != alph:
                self.fail(f"index {label!r} has the wrong alphabet for "
                          f"{name}", tok)
            if var is None:
                var = Variance.UP if minus is None else Variance.DOWN
            idxs.append(Index(label, alph, var))

        if kind == Kind.LAMBDA_POWER:
            expo = self.parse_exponent() if self.accept("^") else Fraction(1)
            return FieldAtom(kind, (), expo)

        atom = FieldAtom(kind, tuple(idxs))
        if isinstance(kind, Kind) and self.accept("^"):
            if idxs:
                self.fail("exponent on an indexed atom", name_t)
            v = self.parse_exponent()
            if v.denominator != 1 or v <= 0:
                self.fail("repetition exponents are positive integers",
                          name_t)
            if v > _MAX_FACTORS:
                self.fail(f"more than {_MAX_FACTORS} factors in one term",
                          name_t)
            return [atom] * int(v)
        return atom


def parse(src: str) -> LagrangianDef:
    if not src.strip():
        raise ParseError("empty source", 1, 1)
    p = _Parser(src)
    name, density, declared = p.run()
    return LagrangianDef(name, canonicalize(density), declared)
