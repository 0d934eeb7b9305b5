"""Text format for Lagrangian densities.

A source file is a sequence of `;`-terminated statements:

    # Klein-Gordon kinetic term with a quartic self-interaction
    indices spacetime mu nu ;
    fields ginv phi ;
    name scalar ;
    density 1/2 * ginv[mu,nu] * d[mu](phi) * d[nu](phi) - lambda * phi^4 ;

A `#` comment runs to the end of its line.  Factors are joined with `*`.
A sum in parentheses is a factor, so a field strength is written once:
`(d[mu](A[nu]) - d[nu](A[mu]))`.  A number is a run of decimal digits
with an optional `/denominator`.  `+` and `-` join terms, and one may
lead a sum: the density, a derivative's operand or a parenthesized sum.
A sign belongs to a number only in a `(...)` exponent, in `^-k` and in a
complex literal such as `(1/2-3*i)`, spelled without blanks; with blanks,
`( 1/2 - 3*i )` is a parenthesized sum of the same value.  Atoms take
comma-separated index labels in brackets; the indices of `gamma` and
`sigma` may carry a leading `-` for a lowered slot.  `gamma`, `sigma`
and `one` are used undeclared.  `d[mu](...)` is the partial derivative.
Derivatives and parentheses nest at most `_MAX_NESTING` deep together,
and a term has at most `_MAX_FACTORS` factors.  `lambda`, `f`,
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
other operand stays under a `Partial` input node, and a parenthesized
sum is a `Sum` factor, which `canonicalize` multiplies out.  So the
terms of a usual density are products of atoms, which `canonicalize`
takes as they stand.

Deterministic work is done once per process.  A factor spelled without
blanks (`ginv[mu,nu]`, `d[mu](phi)`, `phi^3`, `1/2`, `(1-2*i)`) and an
`indices` or `fields` statement on one line are each parsed once: a
memo (`exprs._Memo`, emptied with the term cache) keeps what the parser
built and what that needed declared, so a later occurrence is one lookup
and a check against the current declarations and `_MAX_NESTING`.  The
parser lexes each such spelling as one token; one that is not in the
memo, or fails its check, is put back as its tokens where a rule reads
it.  The parser reads a source once and raises each error where it
meets it, at its line and column; a character that starts no token is
reported ahead of any other error.  The renderer keeps the chunk of
each atom in a memo too (`_CHUNKS`) and joins a term's chunks, a run of
a rider atom as one power."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

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

# Derivatives and parentheses nested deeper than this, counted together,
# are refused at the offending `d` or `(`: every layer that walks an
# expression tree recurses once per level.
_MAX_NESTING = 100
# A term with more factors than this is refused at the atom that passes
# it, before a repetition such as `phi^1000000000` is built.
_MAX_FACTORS = 100_000


class LagrangianDef(NamedTuple):
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
# pattern always matches, so the skip never gives back a comment.  The
# patterns compile on first use, which a run that parses nothing skips.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_NAME = r"[^\W\d]\w*"
_ALTS = rf"{_NAME}|\d+|[;,\[\]()*+\-^/]|.|\Z"
_TOKEN = rf"(?s){_SKIP}({_ALTS})"
# The parser also takes as one token an `indices` or `fields` statement
# on one line and a compact factor: a number with its denominator, a
# complex literal, an atom with its brackets and exponent, or `d[label]`
# of one, spelled without blanks.
_RAT = r"\d+(?:/\d+)?"
_ATOM = (rf"(?!d\[){_NAME}(?:\[-?{_NAME}(?:,-?{_NAME})*\])?"
         rf"(?:\^(?:-?\d+|\(-?{_RAT}\)))?")
_COMPACT = (
    rf"(?s){_SKIP}((?:indices|fields)(?:[ \t]+{_NAME})+[ \t]*;|{_RAT}"
    rf"|\(-?{_RAT}[+-]{_RAT}\*i\)|d\[{_NAME}\]\({_ATOM}\)|{_ATOM}|{_ALTS})")
_SYMBOLS = frozenset(";,[]()*+-^/")


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _line_col(src: str, at: int) -> tuple[int, int]:
    """(line, column) of the character at offset ``at``."""
    return src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at)


def _check_characters(src: str):
    """Raise at the first plain token that starts with a character no
    rule accepts: not a letter or `_` (a name), a decimal digit (a
    number) or a symbol, such as `²`, a numeric character that is no
    decimal digit.  A source holding one never parses, but the character
    may hide inside a compact token, so ``_Parser.fail`` looks first."""
    for m in re.finditer(_TOKEN, src):
        c = m.group(1)[:1]
        if c and not (_is_name(c) or c.isdecimal() or c in _SYMBOLS):
            raise ParseError(f"unexpected character {c!r}",
                             *_line_col(src, m.start(1)))


# ---------------------------------------------------------------------------
# parser

_SIGNS = {"+": 1, "-": -1}

# memos the parser fills: factor spelling -> (a coefficient, or an atom,
# its repeats (0 for a coefficient), the field kinds and the (label,
# alphabet) pairs it needs declared, the deepest nesting it may sit at);
# statement spelling -> (label -> alphabet, field kinds) that it declares
_FACTORS = ex._Memo()
_STATEMENTS = ex._Memo()


class _Parser:
    """Recursive descent over the compact tokens of a source.  A
    memoized factor or one-line statement whose declarations hold is
    taken as one token; any other compact token is put back as its
    tokens where a rule reads it (``plain``).  A term's coefficient
    stays a plain number until `i` comes."""

    def __init__(self, src: str):
        self.src = src
        self.toks = re.findall(_COMPACT, src)
        self.pos = 0
        self.index_alphabet: dict[str, Alphabet] = {}
        self.fields: set[Kind] = set()
        # the declared kinds and (label, alphabet) pairs
        self.declared: set = set()
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
        """Raise at the token in place ``at``, by default the next one.
        Each token is the source text after the blanks and comments
        before it, so its place is found by walking the list."""
        _check_characters(self.src)
        skip, end = re.compile(_SKIP).match, 0
        for tok in self.toks[:self.pos if at is None else at]:
            end = skip(self.src, end).end() + len(tok)
        raise exc(msg, *_line_col(self.src, skip(self.src, end).end()))

    def plain(self, t: int) -> str:
        """The token at place t, a compact one first put back as its
        tokens: the first of them."""
        tok = self.toks[t]
        if len(tok) > 1 and not tok.isalnum():
            self.toks[t:t + 1] = re.findall(_TOKEN, tok)[:-1]
            tok = self.toks[t]
        return tok

    def accept(self, s: str) -> bool:
        """Step over the symbol `s` if it comes next, alone or opening a
        compact complex literal; no name or number is spelled like a
        symbol."""
        tok = self.toks[self.pos]
        if tok != s:
            if tok[:1] != s:
                return False
            self.plain(self.pos)
        self.pos += 1
        return True

    def expect_sym(self, s: str):
        if not self.accept(s):
            self.fail(f"expected {s!r}")

    def expect_ident(self) -> int:
        if not _is_name(self.plain(self.pos)):
            self.fail("expected a name")
        return self.advance()

    # -- statements ---------------------------------------------------------

    def run(self) -> tuple[str, Expr, tuple[Kind, ...]]:
        toks = self.toks
        while self.peek():
            t = self.pos
            spelling = toks[t]
            decl = _STATEMENTS.get(spelling)
            if decl and self.index_alphabet.keys().isdisjoint(decl[0]):
                self.declare(*decl)
                self.pos = t + 1
                continue
            head = self.expect_ident()
            if toks[head] in ("indices", "fields"):
                decl = (self.stmt_indices() if toks[head] == "indices"
                        else self.stmt_fields())
                self.declare(*decl)
                if spelling[-1] == ";":  # a statement on one line
                    _STATEMENTS[spelling] = decl
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

    def declare(self, labels: dict, kinds):
        self.index_alphabet.update(labels)
        self.fields.update(kinds)
        self.declared.update(labels.items(), kinds)

    def stmt_indices(self) -> tuple[dict, tuple]:
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
        new: dict[str, Alphabet] = {}
        for t in labels:
            label = self.toks[t]
            if label in self.index_alphabet or label in new:
                self.fail(f"index {label!r} declared twice", t)
            new[label] = alph
        return new, ()

    def stmt_fields(self) -> tuple[dict, frozenset]:
        if self.accept(";"):
            self.fail("empty fields statement")
        kinds = set()
        while not self.accept(";"):
            t = self.expect_ident()
            name = self.toks[t]
            if name == "delta":
                self.fail("delta is internal to the contraction engine", t)
            kind = _KIND_BY_NAME.get(name)
            if not isinstance(kind, Kind):
                self.fail(f"unknown field {name!r}", t, UndeclaredField)
            kinds.add(kind)
        return {}, frozenset(kinds)

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
        factors: list[FieldAtom | Partial | Sum] = []
        while True:
            t = self.pos
            spelling = toks[t]
            hit = _FACTORS.get(spelling)
            # a spelling followed by `[`, `^` or `/` need not be the
            # factor it spells: a name takes brackets or an exponent, a
            # number a denominator
            if hit and toks[t + 1] not in ("[", "^", "/") \
                    and hit[2] <= self.declared and self.nesting <= hit[3]:
                self.pos = t + 1
                if hit[1]:
                    factors += [hit[0]] * hit[1]
                elif type(hit[0]) is CRat:  # a complex literal
                    coeff = hit[0] * coeff
                else:
                    coeff = coeff * hit[0]
            else:
                tok = self.plain(t)
                if tok[:1].isdecimal():
                    v = self.parse_number("a number")
                    coeff = coeff * v
                    self.remember(spelling, t, v, 0)
                elif tok == "(" and len(spelling) > 1:
                    # a complex literal: no other compact token opens
                    # with `(`
                    self.pos = t + 1
                    v = self.parse_complex_literal()
                    coeff = v * coeff
                    self.remember(spelling, t, v, 0)
                elif tok == "(":
                    self.deeper("parentheses", t)
                    self.pos = t + 1
                    factors.append(self.parse_group())
                elif tok == "i":
                    self.pos = t + 1
                    coeff = ex.I_UNIT * coeff
                else:
                    if tok == "d" and toks[t + 1] == "[":
                        atom = self.parse_derivative()
                    elif tok and tok not in _SYMBOLS:
                        # a name: numbers and symbols are the only others
                        atom = self.parse_atom()
                    else:
                        self.fail("expected a factor")
                    n = 1
                    if type(atom) is list:
                        factors += atom
                        atom, n = atom[0], len(atom)
                    else:
                        factors.append(atom)
                    self.remember(spelling, t, atom, n)
            if len(factors) > _MAX_FACTORS:
                self.fail(f"more than {_MAX_FACTORS} factors in one term", t)
            if toks[self.pos] != "*":
                break
            self.pos += 1
        if type(coeff) is not CRat:
            coeff = _UNIT if coeff == 1 else CRat(coeff)
        return Product(coeff, tuple(factors))

    def remember(self, spelling: str, t: int, value, n: int):
        """Memoize the factor that its tokens, from place t on, spell
        exactly: a coefficient (n = 0) or an atom repeated n times, with
        what its parse found declared and how deep it nests derivatives.
        """
        if "".join(self.toks[t:self.pos]) != spelling:
            return
        needs, room = set(), _MAX_NESTING
        if n:
            if type(value) is not FieldAtom:
                return
            needs = {(ix.label, ix.alphabet)
                     for ix in value.indices + value.derivs}
            if type(value.kind) is Kind:
                needs.add(value.kind)
            room -= len(value.derivs)
        _FACTORS[spelling] = (value, n, frozenset(needs), room)

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
        tok = self.plain(self.pos)
        t = self.advance()
        if not tok[:1].isdecimal():
            self.fail(f"expected {what}", t)
        try:
            return int(tok)
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

    def deeper(self, what: str, at: int):
        """Open one level of nesting, refused at place ``at`` (its `d` or
        `(`) past `_MAX_NESTING`; ``parse_group`` closes it."""
        if self.nesting == _MAX_NESTING:
            self.fail(f"{what} nested deeper than {_MAX_NESTING}", at)
        self.nesting += 1

    def parse_group(self) -> Sum:
        """A sum and its `)`, the `(` taken, in the level ``deeper``
        opened."""
        inner = self.parse_expr()
        self.nesting -= 1
        self.expect_sym(")")
        return inner

    def parse_derivative(self) -> FieldAtom | Partial:
        """`d[m](...)`, the `d` next and `[` after it: the one atom the
        engine's rule makes of a lone atom, or a ``Partial``."""
        d_t = self.pos
        self.deeper("derivatives", d_t)
        self.pos = d_t + 2
        lab_t = self.expect_ident()
        self.expect_sym("]")
        label = self.toks[lab_t]
        alph = self.index_alphabet.get(label)
        if alph is None:
            self.fail(f"undeclared index {label!r}", lab_t)
        if alph != Alphabet.SPACETIME:
            self.fail("derivative index must be spacetime", lab_t)
        ix = ex.st_lo(label)
        self.expect_sym("(")
        inner = self.parse_group()
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
            if not _is_name(self.plain(pos)):
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
        return Index(label, alph, var)

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
        idxs = tuple([self.slot_index(minus, tok, slot, name)
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


# atom -> its chunk
_CHUNKS = ex._Memo(_factor_chunk)


def _factors_text(items: tuple) -> str:
    """The factors of a canonical term as rendered, joined by " * ", each
    atom's chunk kept per atom, with a run of a rider (an atom without
    indices, derivatives or spin, ``FieldAtom.rides``) as one power."""
    out, prev = [], None
    for f in items:
        if f is prev:
            n += 1
            out[-1] = f"{text}^{n}"
            continue
        text = _CHUNKS[f]
        out.append(text)
        prev, n = (f if f.rides else None), 1
    return " * ".join(out)


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
