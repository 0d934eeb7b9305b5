"""Text format for Lagrangian densities.

A source file is a sequence of `;`-terminated statements:

    # Klein-Gordon kinetic term with a quartic self-interaction
    indices spacetime mu nu ;
    fields ginv phi ;
    name scalar ;
    density 1/2 * ginv[mu,nu] * d[mu](phi) * d[nu](phi) - lambda * phi^4 ;

A `#` comment runs to the end of its line.  Factors are joined with `*`.
A number is a run of decimal digits with an optional `/denominator`; a
sign is allowed only in a `(...)` exponent, in `^-k` and in a complex
literal such as `(1/2-3*i)`.  Atoms take comma-separated index labels in
brackets; the indices of `gamma` and `sigma` may carry a leading `-` for
a lowered slot.  `gamma`, `sigma` and `one` are used undeclared.
`d[mu](...)` is the partial derivative, nested at most `_MAX_NESTING`
deep, and a term has at most `_MAX_FACTORS` factors.  `lambda`, `f`,
`e` and bare `g` are coupling constants; `g[mu,nu]` is the metric.
`Lam^k` is the formal scale factor with rational exponent k.  `phi^4`
abbreviates a repeated index-free factor, and counts as 4 factors.  The
Kronecker delta is internal to the contraction engine and is not
accepted as input.

The parser builds the terms the engine consumes: a `Sum` of
`Product(coeff, factors)`, a coefficient of 1 being the shared unit.
The derivative of a lone atom is the factor the engine's derivative
rule (`exprs._derive_factor`) makes of it, when that is one atom with
coefficient 1: the atom with the index leading its `derivs`.  Every
other operand stays under a `Partial` input node.  So the terms of a
usual density are products of atoms, which `canonicalize` takes as
they stand."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import exprs as ex
from .errors import IndexArityMismatch, ParseError, UndeclaredField
from .exprs import (
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
    _UNIT,
    canonicalize,
)

_KIND_BY_NAME = {k.value: k for k in (*Kind, *ex.CliffordKind)}

# Derivatives nested deeper than this are refused at the offending `d`:
# every layer that walks an expression tree recurses once per level.
_MAX_NESTING = 100
# A term with more factors than this is refused at the atom that passes
# it, before a repetition such as `phi^1000000000` is built.
_MAX_FACTORS = 100_000


@dataclass(frozen=True)
class LagrangianDef:
    name: str
    parsed: Sum
    declared: tuple[Kind, ...]

    def free_indices(self) -> frozenset[Index]:
        return ex.free_indices(self.parsed)


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


def _position(src: str, k: int) -> tuple[int, int]:
    """(line, column) of the k-th token of a source."""
    at = next(itertools.islice(_TOKEN.finditer(src), k, None)).start(1)
    return src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at)


# ---------------------------------------------------------------------------
# parser

_SIGNS = {"+": 1, "-": -1}


class _Parser:
    """Recursive descent over the token list.  A term's coefficient
    stays a plain number until `i` comes, and an index is built once per
    parse for each (label, slot, mark) that passed its checks."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.index_alphabet: dict[str, Alphabet] = {}
        self.fields: set[Kind] = set()
        self.name: Optional[str] = None
        self.density: Optional[Expr] = None
        self.nesting = 0
        self.indices: dict[tuple, Index] = {}

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

    def parse_expr(self) -> Sum:
        toks = self.toks
        sign = _SIGNS.get(toks[self.pos])
        if sign:
            self.pos += 1
        terms = [self.parse_term(sign or 1)]
        while sign := _SIGNS.get(toks[self.pos]):
            self.pos += 1
            terms.append(self.parse_term(sign))
        return Sum(tuple(terms))

    def parse_term(self, sign: int) -> Product:
        toks = self.toks
        coeff = sign
        factors: list[FieldAtom | Partial] = []
        while True:
            t = self.pos
            tok = toks[t]
            if tok[:1].isdecimal():
                coeff = coeff * self.parse_number("a number")
            elif tok == "(":
                self.pos = t + 1
                coeff = self.parse_complex_literal() * coeff
            elif tok == "i":
                self.pos = t + 1
                coeff = ex.I_UNIT * coeff
            else:
                if tok == "d" and toks[t + 1] == "[":
                    factors.append(self.parse_derivative())
                elif tok and tok not in _SYMBOLS:
                    # a name: numbers and symbols are the only other tokens
                    atom = self.parse_atom()
                    if type(atom) is list:
                        factors += atom
                    else:
                        factors.append(atom)
                else:
                    self.fail("expected a factor")
                if len(factors) > _MAX_FACTORS:
                    self.fail(f"more than {_MAX_FACTORS} factors in one "
                              f"term", t)
            if toks[self.pos] != "*":
                break
            self.pos += 1
        if type(coeff) is not CRat:
            coeff = _UNIT if coeff == 1 else CRat(coeff)
        return Product(coeff, tuple(factors))

    def parse_number(self, what: str, signed: bool = False,
                     slash: bool = True) -> int | Fraction:
        """The one number rule, `[-] INT [/ INT]`, with the sign and the
        slash only where the caller allows them; `what` names a missing
        first INT in the message."""
        neg = signed and self.accept("-")
        v = self.integer(what)
        if slash and self.accept("/"):
            den_t = self.pos
            den = self.integer("a denominator")
            if den == 0:
                self.fail("zero denominator", den_t)
            v = Fraction(v, den)
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
        s = _SIGNS.get(self.peek())
        if not s:
            self.fail("expected '+' or '-' in complex literal")
        self.pos += 1
        im = self.parse_number("a number")
        self.expect_sym("*")
        i_t = self.expect_ident()
        if self.toks[i_t] != "i":
            self.fail("expected 'i'", i_t)
        self.expect_sym(")")
        return CRat(re, s * im)

    def parse_derivative(self) -> FieldAtom | Partial:
        """`d[m](...)`, the `d` next and `[` after it: the one atom the
        engine's rule makes of a lone atom, or a ``Partial``."""
        d_t = self.pos
        if self.nesting == _MAX_NESTING:
            self.fail(f"derivatives nested deeper than "
                      f"{_MAX_NESTING}", d_t)
        self.pos = d_t + 2
        lab_t = self.expect_ident()
        self.expect_sym("]")
        label = self.toks[lab_t]
        ix = self.indices.get((label, ex._SD, True))
        if ix is None:
            alph = self.index_alphabet.get(label)
            if alph is None:
                self.fail(f"undeclared index {label!r}", lab_t)
            if alph != Alphabet.SPACETIME:
                self.fail("derivative index must be spacetime", lab_t)
            ix = self.indices[label, ex._SD, True] = ex.st_lo(label)
        self.expect_sym("(")
        self.nesting += 1
        inner = self.parse_expr()
        self.nesting -= 1
        self.expect_sym(")")
        match inner.terms:
            case (Product(coeff=c, factors=(FieldAtom() as atom,)),) \
                    if c is _UNIT:
                match ex._derive_factor(ix, atom):
                    case ((c, [node]),) if c is _UNIT:
                        return node
        return Partial(ix, inner)

    def parse_bracket_list(self) -> list[tuple[Optional[int], int]]:
        """`[` labels `]`, the `[` next, as (the place of a leading `-`
        or None, the label's place) pairs."""
        toks = self.toks
        pos = self.pos + 1
        out = []
        while True:
            minus = None
            if toks[pos] == "-":
                minus, pos = pos, pos + 1
            if not _is_name(toks[pos]):
                self.pos = pos
                self.fail("expected a name")
            out.append((minus, pos))
            if toks[pos + 1] != ",":
                break
            pos += 2
        self.pos = pos + 1
        self.expect_sym("]")
        return out

    def parse_exponent(self) -> int | Fraction:
        """`k`, `-k` or a signed rational in `(...)`, the `^` taken."""
        if self.accept("("):
            v = self.parse_number("a number", signed=True)
            self.expect_sym(")")
            return v
        return self.parse_number("an exponent", signed=True, slash=False)

    def slot_index(self, minus: Optional[int], tok: int, slot,
                   name: str) -> Index:
        """The index of one slot of atom ``name``, its checks passed."""
        if minus is not None and slot[1] is not None:
            # a variance mark is valid where the slot takes either one
            self.fail("explicit variance marks are only valid on "
                      "gamma and sigma", minus)
        label = self.toks[tok]
        declared = self.index_alphabet.get(label)
        if declared is None:
            self.fail(f"undeclared index {label!r}", tok)
        alph, var = slot
        if declared != alph:
            self.fail(f"index {label!r} has the wrong alphabet for "
                      f"{name}", tok)
        if var is None:
            var = Variance.UP if minus is None else Variance.DOWN
        ix = Index(label, alph, var)
        self.indices[label, slot, minus is None] = ix
        return ix

    def parse_atom(self) -> FieldAtom | list[FieldAtom]:
        toks = self.toks
        name_t = self.pos
        name = toks[name_t]
        self.pos = name_t + 1
        has_brackets = toks[name_t + 1] == "["

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
        field = type(kind) is Kind
        if field and kind not in self.fields:
            self.fail(f"field {name!r} used but not declared", name_t,
                      UndeclaredField)

        pattern = kind.row.slots
        raw = self.parse_bracket_list() if has_brackets else ()
        if len(raw) != len(pattern):
            self.fail(f"{name} takes {len(pattern)} indices, got "
                      f"{len(raw)}", name_t, IndexArityMismatch)
        idxs = tuple([self.indices.get((toks[tok], slot, minus is None))
                      or self.slot_index(minus, tok, slot, name)
                      for (minus, tok), slot in zip(raw, pattern)])

        if kind is Kind.LAMBDA_POWER:
            expo = self.parse_exponent() if self.accept("^") else 1
            return FieldAtom(kind, (), Fraction(expo))

        atom = FieldAtom(kind, idxs)
        if field and toks[self.pos] == "^":
            self.pos += 1
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
    name, density, declared = _Parser(src).run()
    return LagrangianDef(name, canonicalize(density), declared)


# ---------------------------------------------------------------------------
# renderer

_DIGITS = 500  # below the least limit `sys.set_int_max_str_digits` takes
_CHUNK = 10 ** _DIGITS


def _int(n: int) -> str:
    """Decimal text of any int, in chunks that `str` converts."""
    head, chunks = abs(n), []
    while head >= _CHUNK:
        head, low = divmod(head, _CHUNK)
        chunks.append(str(low).zfill(_DIGITS))
    return ("-" if n < 0 else "") + str(head) + "".join(reversed(chunks))


def _rat(fr: Fraction) -> str:
    if fr.denominator == 1:
        return _int(fr.numerator)
    return f"{_int(fr.numerator)}/{_int(fr.denominator)}"


def _coeff_chunks(c: CRat, has_other: bool) -> tuple[int, list[str]]:
    if c.im == 0:
        sign = -1 if c.re < 0 else 1
        mag = abs(c.re)
        if mag == 1 and has_other:
            return sign, []
        return sign, [_rat(mag)]
    if c.re == 0:
        sign = -1 if c.im < 0 else 1
        mag = abs(c.im)
        chunks = [] if mag == 1 else [_rat(mag)]
        return sign, chunks + ["i"]
    op = "+" if c.im > 0 else "-"
    return 1, [f"({_rat(c.re)}{op}{_rat(abs(c.im))}*i)"]


def _exponent_text(expo: Fraction) -> str:
    if expo == 1:
        return ""
    if expo.denominator == 1:
        return f"^{_int(expo.numerator)}"
    return f"^({_rat(expo)})"


def _index_text(ix: Index, slot) -> str:
    """A label, marked `-` when lowered in a slot of either variance."""
    if slot[1] is None and ix.variance == Variance.DOWN:
        return f"-{ix.label}"
    return ix.label


def _factor_chunk(f: FieldAtom) -> str:
    text = f.kind.value
    if f.exponent is not None:
        text += _exponent_text(f.exponent)
    elif f.indices:
        labs = map(_index_text, f.indices, f.kind.row.slots)
        text += "[" + ",".join(labs) + "]"
    for ix in reversed(f.derivs):
        text = f"d[{ix.label}]({text})"
    return text


# factor tuple -> its text; a memo emptied with the term cache
_TEXTS: dict = {}
ex._MEMOS.append(_TEXTS)


def _factors_text(items: tuple) -> str:
    """The factors of a term as rendered, joined by " * ", with a run of
    an index-free field as one power; computed once per factor tuple."""
    text = _TEXTS.get(items)
    if text is not None:
        return text
    chunks = []
    i = 0
    while i < len(items):
        f = items[i]
        if f.exponent is None and not f.indices and not f.derivs:
            j = i
            while j < len(items) and items[j] == f:
                j += 1
            n = j - i
            chunks.append(_factor_chunk(f) + (f"^{n}" if n > 1 else ""))
            i = j
            continue
        chunks.append(_factor_chunk(f))
        i += 1
    ex._make_room()
    text = _TEXTS[items] = " * ".join(chunks)
    return text


def render_expr(e: Expr) -> str:
    s = canonicalize(e)
    if not s.terms:
        return "0"
    parts = []
    for k, t in enumerate(s.terms):
        sign, chunks = _coeff_chunks(t.coeff, bool(t.factors))
        if t.factors:
            chunks.append(_factors_text(t.factors))
        txt = " * ".join(chunks)
        if k == 0:
            parts.append(("-" if sign < 0 else "") + txt)
        else:
            parts.append((" - " if sign < 0 else " + ") + txt)
    return "".join(parts)


def render(L: LagrangianDef) -> str:
    st, fr = set(), set()
    for t in L.parsed.terms:
        for ix in ex._term_slot_list(t.factors):
            (st if ix.alphabet == Alphabet.SPACETIME else fr).add(ix.label)
    lines = []
    if st:
        lines.append("indices spacetime " + " ".join(sorted(st)) + " ;")
    if fr:
        lines.append("indices frame " + " ".join(sorted(fr)) + " ;")
    if L.declared:
        lines.append("fields " + " ".join(k.value for k in L.declared)
                     + " ;")
    lines.append(f"name {L.name} ;")
    lines.append(f"density {render_expr(L.parsed)} ;")
    return "\n".join(lines) + "\n"


def used_kinds(e: Expr) -> tuple[Kind, ...]:
    kinds = {f.kind for t in canonicalize(e).terms for f in t.factors
             if isinstance(f.kind, Kind)}
    return tuple(sorted(kinds, key=lambda k: k.value))


def make_def(name: str, e: Expr) -> LagrangianDef:
    """Wrap a programmatically built density, deriving its declarations
    from the expression itself."""
    parsed = canonicalize(e)
    return LagrangianDef(name, parsed, used_kinds(parsed))
