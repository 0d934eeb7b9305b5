"""Text format for Lagrangian densities.

A source file is a sequence of `;`-terminated statements:

    # Klein-Gordon kinetic term with a quartic self-interaction
    indices spacetime mu nu ;
    fields ginv phi ;
    name scalar ;
    density 1/2 * ginv[mu,nu] * d[mu](phi) * d[nu](phi) - lambda * phi^4 ;

Factors are joined with `*`.  Atoms take comma-separated index labels in
brackets; the indices of `gamma` and `sigma` may carry a leading `-` for
a lowered slot.  `gamma`, `sigma` and `one` are used undeclared.
`d[mu](...)` is the partial derivative, nested at most `_MAX_NESTING`
deep.  `lambda`, `f`, `e` and bare `g` are coupling constants;
`g[mu,nu]` is the metric.  `Lam^k` is the formal scale factor with
rational exponent k.  `phi^4` abbreviates a repeated index-free
factor.  The Kronecker delta is internal to the contraction
engine and is not accepted as input."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import exprs as ex
from .errors import IndexArityMismatch, ParseError, UndeclaredField
from .exprs import (
    Alphabet,
    Coupling,
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

_KIND_BY_NAME = {k.value: k for k in ex._KINDS}

# Derivatives nested deeper than this are refused at the offending `d`:
# every layer that walks an expression tree recurses once per level.
_MAX_NESTING = 100


@dataclass(frozen=True)
class LagrangianDef:
    name: str
    parsed: Sum
    declared: tuple[Kind, ...]

    def free_indices(self) -> frozenset[Index]:
        return ex.free_indices(self.parsed)


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = set(";,[]()*+-^/")


@dataclass(frozen=True)
class _Tok:
    kind: str  # ident | int | sym | eof
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Tok("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Tok("sym", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.index_alphabet: dict[str, Alphabet] = {}
        self.fields: set[Kind] = set()
        self.name: Optional[str] = None
        self.density: Optional[Expr] = None
        self.nesting = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: Optional[_Tok] = None):
        t = tok or self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect_sym(self, s: str) -> _Tok:
        t = self.peek()
        if t.kind != "sym" or t.text != s:
            self.fail(f"expected {s!r}", t)
        return self.advance()

    def expect_ident(self) -> _Tok:
        t = self.peek()
        if t.kind != "ident":
            self.fail("expected a name", t)
        return self.advance()

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    # -- statements ---------------------------------------------------------

    def run(self) -> tuple[str, Expr, tuple[Kind, ...]]:
        while self.peek().kind != "eof":
            head = self.expect_ident()
            if head.text == "indices":
                self.stmt_indices()
            elif head.text == "fields":
                self.stmt_fields()
            elif head.text == "name":
                t = self.expect_ident()
                if self.name is not None:
                    self.fail("duplicate name statement", head)
                # hyphenated names: WORD (- WORD)*
                parts = [t.text]
                while self.at_sym("-"):
                    self.advance()
                    parts.append(self.expect_ident().text)
                self.name = "-".join(parts)
                self.expect_sym(";")
            elif head.text == "density":
                if self.density is not None:
                    self.fail("duplicate density statement", head)
                self.density = self.parse_expr()
                self.expect_sym(";")
            else:
                self.fail(f"unknown statement {head.text!r}", head)
        if self.density is None:
            self.fail("missing density statement")
        declared = tuple(sorted(self.fields, key=lambda k: k.value))
        return self.name or "user", self.density, declared

    def stmt_indices(self):
        alph_tok = self.expect_ident()
        try:
            alph = {"spacetime": Alphabet.SPACETIME,
                    "frame": Alphabet.FRAME}[alph_tok.text]
        except KeyError:
            self.fail("expected 'spacetime' or 'frame'", alph_tok)
        labels = []
        while not self.at_sym(";"):
            labels.append(self.expect_ident())
        self.advance()
        if not labels:
            self.fail("empty indices statement", alph_tok)
        for t in labels:
            if t.text in self.index_alphabet:
                self.fail(f"index {t.text!r} declared twice", t)
            self.index_alphabet[t.text] = alph

    def stmt_fields(self):
        got = False
        while not self.at_sym(";"):
            t = self.expect_ident()
            got = True
            if t.text == "delta":
                self.fail("delta is internal to the contraction engine", t)
            kind = _KIND_BY_NAME.get(t.text)
            if not isinstance(kind, Kind):
                raise UndeclaredField(f"unknown field {t.text!r}",
                                      t.line, t.col)
            self.fields.add(kind)
        self.advance()
        if not got:
            self.fail("empty fields statement")

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        terms = []
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        elif self.at_sym("+"):
            self.advance()
        terms.append(self.parse_term(sign))
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance()
            terms.append(self.parse_term(1 if op.text == "+" else -1))
        return Sum(tuple(terms))

    def parse_term(self, sign: int) -> Expr:
        coeff = CRat(sign)
        factors: list[Expr] = []
        while True:
            piece = self.parse_factor()
            if isinstance(piece, CRat):
                coeff = coeff * piece
            else:
                factors.extend(piece if isinstance(piece, list) else [piece])
            if self.at_sym("*"):
                self.advance()
                continue
            break
        return Product(coeff, tuple(factors))

    def parse_factor(self) -> Union[CRat, Expr, list]:
        t = self.peek()
        if t.kind == "int":
            return self.parse_rational()
        if t.kind == "sym" and t.text == "(":
            return self.parse_complex_literal()
        if t.kind == "ident":
            if t.text == "i":
                self.advance()
                return ex.I_UNIT
            if t.text == "d" and self.toks[self.pos + 1].text == "[":
                return self.parse_derivative()
            return self.parse_atom()
        self.fail("expected a factor", t)

    def parse_rational(self) -> CRat:
        t = self.advance()
        num = int(t.text)
        if self.at_sym("/"):
            self.advance()
            den_t = self.peek()
            if den_t.kind != "int":
                self.fail("expected a denominator", den_t)
            self.advance()
            if int(den_t.text) == 0:
                self.fail("zero denominator", den_t)
            return CRat(Fraction(num, int(den_t.text)))
        return CRat(Fraction(num))

    def parse_signed_rational(self) -> Fraction:
        neg = False
        if self.at_sym("-"):
            self.advance()
            neg = True
        t = self.peek()
        if t.kind != "int":
            self.fail("expected a number", t)
        v = self.parse_rational().re
        return -v if neg else v

    def parse_complex_literal(self) -> CRat:
        self.expect_sym("(")
        re = self.parse_signed_rational()
        sign_t = self.peek()
        if not (self.at_sym("+") or self.at_sym("-")):
            self.fail("expected '+' or '-' in complex literal", sign_t)
        s = 1 if self.advance().text == "+" else -1
        t = self.peek()
        if t.kind != "int":
            self.fail("expected a number", t)
        im = self.parse_rational().re
        self.expect_sym("*")
        i_t = self.expect_ident()
        if i_t.text != "i":
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
        alph = self.index_alphabet.get(lab_t.text)
        if alph is None:
            self.fail(f"undeclared index {lab_t.text!r}", lab_t)
        if alph != Alphabet.SPACETIME:
            self.fail("derivative index must be spacetime", lab_t)
        self.expect_sym("(")
        self.nesting += 1
        inner = self.parse_expr()
        self.nesting -= 1
        self.expect_sym(")")
        return Partial(Index(lab_t.text, Alphabet.SPACETIME, Variance.DOWN),
                       inner)

    def parse_index(self) -> tuple[str, Optional[_Tok], _Tok]:
        """(label, the token of a leading `-` or None, label token)."""
        minus = self.advance() if self.at_sym("-") else None
        t = self.expect_ident()
        return t.text, minus, t

    def parse_bracket_list(self):
        out = []
        self.expect_sym("[")
        while True:
            out.append(self.parse_index())
            if self.at_sym(","):
                self.advance()
                continue
            break
        self.expect_sym("]")
        return out

    def parse_exponent(self) -> Fraction:
        self.expect_sym("^")
        if self.at_sym("("):
            self.advance()
            v = self.parse_signed_rational()
            self.expect_sym(")")
            return v
        neg = False
        if self.at_sym("-"):
            self.advance()
            neg = True
        t = self.peek()
        if t.kind != "int":
            self.fail("expected an exponent", t)
        self.advance()
        v = Fraction(int(t.text))
        return -v if neg else v

    def parse_atom(self) -> Union[Expr, list, CRat]:
        name_t = self.advance()
        name = name_t.text
        has_brackets = self.at_sym("[")

        if name == "delta":
            self.fail("delta is internal to the contraction engine", name_t)

        if name in ex._COUPLINGS and not (name == "g" and has_brackets):
            power = 1
            if self.at_sym("^"):
                v = self.parse_exponent()
                if v.denominator != 1:
                    self.fail("coupling exponents are integers", name_t)
                power = int(v)
            return Coupling(name, power)

        kind = _KIND_BY_NAME.get(name)
        if kind is None:
            raise UndeclaredField(f"unknown field {name!r}",
                                  name_t.line, name_t.col)
        if isinstance(kind, Kind) and kind not in self.fields:
            raise UndeclaredField(f"field {name!r} used but not declared",
                                  name_t.line, name_t.col)

        pattern = ex._KINDS[kind].slots
        raw = self.parse_bracket_list() if has_brackets else []
        if len(raw) != len(pattern):
            raise IndexArityMismatch(
                f"{name} takes {len(pattern)} indices, got {len(raw)}",
                name_t.line, name_t.col)
        idxs = []
        for (lab, minus, tok), (alph, var) in zip(raw, pattern):
            # a variance mark is valid where the slot takes either one
            if minus is not None and var is not None:
                self.fail("explicit variance marks are only valid on "
                          "gamma and sigma", minus)
            declared = self.index_alphabet.get(lab)
            if declared is None:
                self.fail(f"undeclared index {lab!r}", tok)
            if declared != alph:
                self.fail(f"index {lab!r} has the wrong alphabet for "
                          f"{name}", tok)
            if var is None:
                var = Variance.UP if minus is None else Variance.DOWN
            idxs.append(Index(lab, alph, var))

        if kind == Kind.LAMBDA_POWER:
            expo = Fraction(1)
            if self.at_sym("^"):
                expo = self.parse_exponent()
            return FieldAtom(kind, (), expo)

        atom = FieldAtom(kind, tuple(idxs))
        if self.at_sym("^") and isinstance(kind, Kind):
            if idxs:
                self.fail("exponent on an indexed atom", name_t)
            v = self.parse_exponent()
            if v.denominator != 1 or v <= 0:
                self.fail("repetition exponents are positive integers",
                          name_t)
            return [atom] * int(v)
        return atom


def parse(src: str) -> LagrangianDef:
    if not src.strip():
        raise ParseError("empty source", 1, 1)
    p = _Parser(src)
    name, density, declared = p.run()
    return LagrangianDef(name, canonicalize(density), declared)


# ---------------------------------------------------------------------------
# renderer

def _rat(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


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
        return f"^{expo.numerator}"
    return f"^({_rat(expo)})"


def _index_text(ix: Index, slot) -> str:
    """A label, marked `-` when lowered in a slot of either variance."""
    if slot[1] is None and ix.variance == Variance.DOWN:
        return f"-{ix.label}"
    return ix.label


def _factor_chunk(f: Expr) -> str:
    if isinstance(f, Coupling):
        return f.name if f.power == 1 else f"{f.name}^{f.power}"
    if isinstance(f, FieldAtom):
        if f.kind == Kind.LAMBDA_POWER:
            return "Lam" + _exponent_text(f.exponent)
        base = f.kind.value
        if f.indices:
            labs = ",".join(map(_index_text, f.indices,
                                ex._KINDS[f.kind].slots))
            return f"{base}[{labs}]"
        return base
    if isinstance(f, Partial):
        return f"d[{f.index.label}]({_factor_chunk(f.operand)})"
    raise TypeError(f"cannot render {f!r}")


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
        if isinstance(f, FieldAtom) and not f.indices \
                and f.kind != Kind.LAMBDA_POWER:
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
    kinds: set[Kind] = set()

    def visit(f):
        if isinstance(f, FieldAtom) and isinstance(f.kind, Kind):
            kinds.add(f.kind)
        elif isinstance(f, Partial):
            visit(f.operand)

    s = canonicalize(e)
    for t in s.terms:
        for f in t.factors:
            visit(f)
    return tuple(sorted(kinds, key=lambda k: k.value))


def make_def(name: str, e: Expr) -> LagrangianDef:
    """Wrap a programmatically built density, deriving its declarations
    from the expression itself."""
    parsed = canonicalize(e)
    return LagrangianDef(name, parsed, used_kinds(parsed))
