"""Source format round-trips and parse diagnostics."""

import random
import string
import time
import tracemalloc
from pathlib import Path

import pytest

import reference_parse as ref
import strategies as gen
from weylcheck import densities, dsl
from weylcheck import exprs as ex
from weylcheck.errors import (
    IndexArityMismatch,
    MalformedChain,
    MalformedIndex,
    ParseError,
    UndeclaredField,
    WeylcheckError,
)


@pytest.mark.parametrize("name", densities.BUILTIN_NAMES)
def test_builtin_round_trip(name):
    L = densities.builtin(name)
    back = dsl.parse(dsl.render(L))
    assert back.name == L.name
    assert back.parsed == L.parsed
    assert back == L


def test_generated_round_trips():
    for seed in range(200):
        s = gen.random_expr(seed)
        doc = dsl.render(dsl.make_def("gen", s))
        assert dsl.parse(doc).parsed == s, seed


def test_render_is_stable(builtins_all):
    for L in builtins_all.values():
        doc = dsl.render(L)
        assert dsl.render(dsl.parse(doc)) == doc


@pytest.mark.parametrize("name", densities.BUILTIN_NAMES)
def test_builtin_declares_the_fields_it_uses(name):
    """A builtin's source declares exactly the fields its density uses."""
    L = densities.builtin(name)
    assert L.declared == dsl.used_kinds(L.parsed)


def test_hyphenated_name_round_trip():
    L = densities.builtin("scalar-gauged")
    assert dsl.parse(dsl.render(L)).name == "scalar-gauged"


def test_comments_and_whitespace_ignored():
    src = """
    # leading comment
    indices spacetime mu nu ;   # trailing comment
    fields ginv phi ;
    name t ;
    density 1/2 * ginv[mu,nu]
        * d[mu](phi) * d[nu](phi) ;
    """
    from fractions import Fraction
    L = dsl.parse(src)
    want = ex.canonicalize(
        Fraction(1, 2) * ex.inv_metric("mu", "nu")
        * ex.d("mu", ex.scalar_field()) * ex.d("nu", ex.scalar_field()))
    assert L.parsed == want
    assert L.name == "t"


def _err(src, exc):
    with pytest.raises(exc) as ei:
        dsl.parse(src)
    return ei.value


def test_missing_semicolon_has_location():
    e = _err("indices spacetime mu ;\nfields phi ;\nname t ;\ndensity phi^2",
             ParseError)
    assert e.line == 4
    assert "expected ';'" in str(e)


def test_delta_is_rejected():
    e = _err("indices spacetime mu nu ;\nfields phi ;\nname t ;\n"
             "density delta[mu,nu] * phi ;", ParseError)
    assert "internal" in str(e)


def test_duplicate_name_rejected():
    _err("name a ;\nname b ;\nfields phi ;\ndensity phi^2 ;", ParseError)


def test_unknown_statement_rejected():
    e = _err("indicess spacetime mu ;\nfields phi ;\ndensity phi^2 ;",
             ParseError)
    assert e.line == 1 and e.col == 1


def test_missing_density_rejected():
    _err("indices spacetime mu ;\nfields phi ;\nname t ;", ParseError)


def test_zero_denominator_rejected():
    _err("fields phi ;\nname t ;\ndensity 1/0 * phi^2 ;", ParseError)


@pytest.mark.parametrize("factor", ["Lam^(1/2/0)", "f^(1/2/0)"])
def test_exponent_takes_one_slash(factor):
    e = _err(f"fields phi Lam ;\nname t ;\ndensity {factor} * phi^4 ;",
             ParseError)
    assert "expected ')'" in str(e)


def test_undeclared_field_rejected():
    e = _err("indices spacetime mu nu ;\nfields phi ;\nname t ;\n"
             "density ginv[mu,nu] * phi ;", UndeclaredField)
    assert "ginv" in str(e)


def test_undeclared_index_rejected():
    _err("indices spacetime mu ;\nfields ginv phi ;\nname t ;\n"
         "density ginv[mu,nu] * d[mu](phi) * d[nu](phi) ;", ParseError)


def test_index_arity_enforced():
    e = _err("indices spacetime mu ;\nfields ginv phi ;\nname t ;\n"
             "density ginv[mu] * phi ;", IndexArityMismatch)
    assert "2 indices" in str(e)


def test_malformed_pairing_rejected():
    _err("indices spacetime mu nu ;\nfields g ;\nname t ;\n"
         "density g[mu,nu] * g[mu,nu] ;", MalformedIndex)


def test_wrong_alphabet_rejected():
    _err("indices spacetime mu ;\nindices frame a ;\nfields eps phi ;\n"
         "name t ;\ndensity eps[mu,a] * phi ;", ParseError)


# Clifford inputs the DSL rejects: (density, error class, column on the
# density line, which is line 5)
_CLIFFORD_REJECTS = [
    ("gamma", IndexArityMismatch, 9),
    ("gamma[a,b]", IndexArityMismatch, 9),
    ("gamma[m]", ParseError, 15),
    ("one[a]", IndexArityMismatch, 9),
    ("one^2", ParseError, 12),
    ("sigma[a]", IndexArityMismatch, 9),
    ("gamma^2", IndexArityMismatch, 9),
    ("eps[-a,m]", ParseError, 13),
]


@pytest.mark.parametrize("density,exc,col", _CLIFFORD_REJECTS,
                         ids=[c[0] for c in _CLIFFORD_REJECTS])
def test_clifford_input_rejected_with_location(density, exc, col):
    e = _err("indices spacetime m ;\nindices frame a b ;\nfields eps ;\n"
             f"name t ;\ndensity {density} ;", exc)
    assert type(e) is exc and (e.line, e.col) == (5, col)


# Diagnostics no other test reaches: source, error class and the
# message with its line:col
_STATEMENT_REJECTS = {
    "duplicate-density": (
        "fields phi ;\ndensity phi^2 ;\ndensity phi^4 ;", ParseError,
        "3:1: duplicate density statement"),
    "index-declared-twice": (
        "indices spacetime mu mu ;", ParseError,
        "1:22: index 'mu' declared twice"),
    "delta-in-fields": (
        "fields delta ;", ParseError,
        "1:8: delta is internal to the contraction engine"),
    "complex-without-sign": (
        "fields phi ;\ndensity (1 2*i) * phi^4 ;", ParseError,
        "2:12: expected ')'"),
    "complex-with-j": (
        "fields phi ;\ndensity (1 + 2*j) * phi^4 ;", UndeclaredField,
        "2:16: unknown field 'j'"),
    "frame-derivative": (
        "indices frame a ;\nfields phi ;\ndensity d[a](phi) ;", ParseError,
        "3:11: derivative index must be spacetime"),
    "fractional-coupling-power": (
        "fields phi ;\ndensity f^(1/2) * phi^4 ;", ParseError,
        "2:9: coupling exponents are integers"),
    "indexed-atom-power": (
        "indices spacetime mu ;\nfields A ;\ndensity A[mu]^2 ;", ParseError,
        "3:9: exponent on an indexed atom"),
    "zero-power": (
        "fields phi ;\ndensity phi^0 ;", ParseError,
        "2:9: repetition exponents are positive integers"),
    "fractional-power": (
        "fields phi ;\ndensity phi^(1/2) ;", ParseError,
        "2:9: repetition exponents are positive integers"),
    "blank-source": (" \n\t\n", ParseError, "1:1: empty source"),
}


@pytest.mark.parametrize("src,exc,msg", _STATEMENT_REJECTS.values(),
                         ids=_STATEMENT_REJECTS)
def test_rejected_source_names_its_place(src, exc, msg):
    e = _err(src, exc)
    assert type(e) is exc and str(e) == msg


def test_two_bilinears_in_one_term_rejected():
    e = _err("indices frame a ;\nfields Psi Psibar ;\nname t ;\n"
             "density Psibar*gamma[a]*Psi*Psibar*gamma[-a]*Psi ;",
             MalformedChain)
    assert "at most one spinor bilinear per term" in str(e)


def test_derivative_nesting_bound():
    """The bound itself parses; one level more is refused at the
    offending `d`."""
    n = dsl._MAX_NESTING

    def src(depth):
        labels = " ".join(f"m{k}" for k in range(depth))
        body = "".join(f"d[m{k}](" for k in range(depth)) + "phi" \
            + ")" * depth
        return (f"indices spacetime {labels} ;\nfields phi ;\nname t ;\n"
                f"density {body} ;")

    assert dsl.parse(src(n)).parsed.terms
    e = _err(src(n + 1), ParseError)
    col = len("density ") + sum(len(f"d[m{k}](") for k in range(n)) + 1
    assert (e.line, e.col) == (4, col)
    assert "nested deeper than" in str(e)


def test_parenthesis_nesting_bound():
    """Parentheses count against the nesting bound as derivatives do: the
    bound itself parses, and one level more, of parentheses alone or
    under derivatives, is refused at the offending `(`."""
    n = dsl._MAX_NESTING
    head = "indices spacetime m ;\nfields phi ;\nname t ;\ndensity "

    def src(opened):
        return head + "".join(opened) + "phi" + ")" * len(opened) + " ;"

    assert dsl.parse(src(["("] * n)).parsed.terms
    for opened in (["("] * (n + 1), ["d[m](", "("] * (n // 2) + ["("]):
        e = _err(src(opened), ParseError)
        col = len("density ") + len("".join(opened[:n])) + 1
        assert (e.line, e.col) == (4, col)
        assert f"parentheses nested deeper than {n}" in str(e)


def test_spaced_complex_literal_is_a_sum_of_equal_value():
    """`(1/2-3*i)` is one literal; with blanks it is the sum of two terms,
    whose canonical form is the literal's."""
    head = "fields phi ;\nname t ;\ndensity "
    spaced = dsl._Parser(head + "( 1/2 - 3*i ) * phi^4 ;").run()[1]
    compact = dsl._Parser(head + "(1/2-3*i) * phi^4 ;").run()[1]
    assert type(spaced.terms[0].factors[0]) is ex.Sum
    assert compact.terms[0].factors == (ex.scalar_field(),) * 4
    assert ex.canonicalize(spaced) == ex.canonicalize(compact)


def test_weyl_meson_written_out_equals_the_example():
    """The example's product of two field strengths is the four terms
    it multiplies out to."""
    written_out = (
        "indices spacetime mu nu rho sig ;\nfields S ginv ;\n"
        "name weyl-meson ;\n"
        "density -1/4 * ginv[mu,rho] * ginv[nu,sig] * d[mu](S[nu]) "
        "* d[rho](S[sig])\n"
        "  + 1/4 * ginv[mu,rho] * ginv[nu,sig] * d[mu](S[nu]) "
        "* d[sig](S[rho])\n"
        "  + 1/4 * ginv[mu,rho] * ginv[nu,sig] * d[nu](S[mu]) "
        "* d[rho](S[sig])\n"
        "  - 1/4 * ginv[mu,rho] * ginv[nu,sig] * d[nu](S[mu]) "
        "* d[sig](S[rho]) ;\n")
    example = (Path(__file__).resolve().parent.parent / "examples"
               / "weyl-meson.wl").read_text()
    assert "(" in example
    assert dsl.parse(example) == dsl.parse(written_out)


@pytest.mark.parametrize("density", ["phi^²", "²", "1/² * phi",
                                     "3² * phi"])
def test_digit_int_cannot_read_is_a_parse_error(density):
    """A superscript digit is a digit to `str.isdigit` but not to `int`,
    so it is refused where it stands."""
    e = _err(f"fields phi ;\nname t ;\ndensity {density} ;", ParseError)
    col = len("density ") + density.index("²") + 1
    assert (e.line, e.col) == (3, col)
    assert "unexpected character '²'" in str(e)


def test_decimal_digits_and_names_of_any_script():
    """A decimal digit of any script reads as its value, and a name may
    be written in any letters."""
    def src(mu, nu, three_quarters, two):
        return (f"indices spacetime {mu} {nu} ;\nfields ginv phi ;\n"
                f"name t ;\ndensity {three_quarters} * ginv[{mu},{nu}] "
                f"* d[{mu}](phi) * d[{nu}](phi) * phi^{two} ;")

    assert (dsl.parse(src("μ", "ν", "٣/٤", "٢")).parsed
            == dsl.parse(src("mu", "nu", "3/4", "2")).parsed)


def test_factor_bound():
    """A term holds at most `_MAX_FACTORS` factors.  The atom that passes
    the bound is refused, before a repetition is built, and so is a
    product of repetitions that passes it together."""
    n = dsl._MAX_FACTORS
    head = "fields phi ;\nname t ;\ndensity "
    _, density, _ = dsl._Parser(head + f"phi^{n // 2} * phi^{n // 2} ;").run()
    assert len(density.terms[0].factors) == n
    tracemalloc.start()
    t0 = time.perf_counter()
    e = _err(head + "phi^1000000000 ;", ParseError)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1 << 20, (elapsed, peak)
    assert (e.line, e.col) == (3, 9)
    assert f"more than {n} factors in one term" in str(e)
    e = _err(head + f"phi^{n // 2} * phi^{n // 2 + 1} ;", ParseError)
    assert (e.line, e.col) == (3, 9 + len(f"phi^{n // 2} * "))


def _mutated(rng, docs, chars, n, ops=3) -> list[str]:
    """n seeded mutations of the docs, each of one to three edits: one
    character replaced, inserted or deleted, or with ``ops=4`` also a
    slice of up to 12 characters repeated."""
    out = []
    for _ in range(n):
        src = rng.choice(docs)
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(src) + 1), rng.randrange(ops)
            if op == 3:
                src = src[:i] + src[i:i + rng.randint(1, 12)] + src[i:]
            else:
                ch = rng.choice(chars) if op < 2 else ""
                src = src[:i] + ch + src[i + (op != 1):]
        out.append(src)
    return out


_DOCS = [dsl.render(gen.random_def(seed)) for seed in range(40)]
_CHARS = string.printable + "²٣½μ\x00"

_HOSTILE = [
    "fields phi ;\nname t ;\ndensity phi^² ;",
    "fields phi ;\nname t ;\ndensity ٣ * ²٣ * ½ ;",
    "fields phi ;\nname t ;\ndensity phi^1000000000 ;",
    "indices spacetime m ;\nfields phi ;\nname t ;\ndensity "
    + "d[m](" * 101 + "phi" + ")" * 101 + " ;",
    "# only a comment",
    "density (1+*i) ;",
    "/",
    "fields phi ;\nname t ;\ndensity \x00 * phi ;",
    "fields\tphi ;\r\nname\tt ;\r\ndensity\tphi^2 ;\r\n",
    "fields phi ;\nname t ;\ndensity 1" + "0" * 5000 + " * phi ;",
    "fields phi ;\nname t ;\ndensity 1" + "0" * 3000 + " * 1" + "0" * 3000
    + " * phi^4 ;",
    "fields phi Lam ;\nname t ;\ndensity Lam^(1/1" + "0" * 4000
    + ") * Lam^(1/3" + "0" * 4000 + "1) * phi ;",
]


def test_parser_returns_or_raises_a_classified_error():
    """Seeded character mutations of rendered sources, and hostile
    inputs, either parse and render or raise a WeylcheckError: never a
    traceback of another kind."""
    inputs = [*_HOSTILE, *_mutated(random.Random("dsl-robustness"),
                                    _DOCS, _CHARS, 2000)]
    for src in inputs:
        try:
            dsl.render(dsl.parse(src))
        except WeylcheckError:
            pass
        except Exception as e:
            pytest.fail(f"{src!r} raised {e!r}")


# derivative operands beside a lone atom: a product, a number, a sign, a
# sum, a constant, Lam under the chain rule, nesting and a repeated label
_DERIVATIVE_OPERANDS = [
    "d[m](phi * phi) * phi^2", "d[m](2 * phi) * phi^3", "d[m](-phi) * phi^3",
    "d[m](phi + phi^2) * phi^2", "d[m](i * phi) * phi^3",
    "d[m](Lam) * ginv[m,n] * S[n]", "d[m](Lam^(1/2)) * ginv[m,n] * S[n]",
    "d[m](Lam^0) * ginv[m,n] * S[n]", "d[m](f) * ginv[m,n] * S[n]",
    "d[m](gamma[a]) * ginv[m,n] * S[n]", "d[m](d[n](phi)) * ginv[m,n]",
    "d[m](ginv[m,n]) * S[n]", "d[m](S[n]) * d[n](S[m])",
    "d[m](detg) * ginv[m,n] * d[n](phi)", "d[m](1 * phi) * d[m](phi)",
]


def _outcome(parse, src):
    """The parsed density, or the class, message and place of its error."""
    try:
        return parse(src)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col",
                                                                   None)


# compact tokens that a rule other than a factor's reads, each after
# _SPLIT_HEAD: a complex literal as a derivative's operand or after `^`,
# an atom or a derivative as a bracket label, a number before `/`
_SPLIT_HEAD = ("indices spacetime mu nu x ;\nfields ginv phi Lam ;\n"
               "name t ;\ndensity ")
_SPLIT_SITES = [
    "d[mu](1/2-3*i) * ginv[mu,nu] * d[nu](phi)", "d[mu]((1/2-3*i)) * phi",
    "phi^(1/2-3*i)", "Lam^(1-3*i) * phi^4", "Lam^((1/2)) * phi^4",
    "ginv[mu^2,nu]", "ginv[mu,d[x](phi)] * phi", "ginv[mu,nu[x]]",
    "phi^4 * ginv[mu,nu] * d[mu](phi) * d[nu](phi) * 3/x",
]


# parenthesized sums: nested, signed, under a derivative, with repeated
# dummies; empty, unclosed, raised to a power, after a `*` sign; and a
# complex literal spelled with blanks, which is a sum
_GROUPS = [
    "ginv[m,n] * (d[m](phi) - f * S[m] * (phi + (phi^2 - 2*detg)))"
    " * d[n](phi)",
    "-(phi^2 - phi) * (+phi^2 - (-phi))", "phi^2 * (-phi + 2*i*phi^2)",
    "d[m]((phi + phi^2)) * ginv[m,n] * d[n](phi)",
    "(ginv[m,n] * S[m] * S[n]) * (ginv[m,n] * S[m] * S[n])",
    "phi^4 * ()", "phi^2 * (phi + phi^2", "(phi + phi^2)^2 * phi^2",
    "phi^3 * -(phi)", "( 1/2 - 3*i ) * phi^4",
]


def _reference_sources() -> list[str]:
    """Rendered generated densities; seeded mutations of them, and of the
    split sites weighted toward the symbols and `i`; the hostile sources
    of the robustness test; Weyl's vector meson; derivatives of every
    kind of operand; the split sites; a character that starts no token
    inside a one-line statement; blanks inside compact spellings; and
    parenthesized sums, 101 of them nested among them."""
    head = ("indices spacetime m n ;\nindices frame a ;\n"
            "fields ginv phi S detg Lam ;\nname t ;\ndensity ")
    split = [_SPLIT_HEAD + body + " ;" for body in _SPLIT_SITES]
    meson = (Path(__file__).resolve().parent.parent / "examples"
             / "weyl-meson.wl").read_text()
    return [*(dsl.render(gen.random_def(seed)) for seed in range(300)),
            *_mutated(random.Random("dsl-robustness"), _DOCS, _CHARS, 2000),
            *_mutated(random.Random("dsl-split-sites"),
                      [*_DOCS, *split, meson],
                      "[](),^/*-+;i" * 8 + _CHARS, 2000, ops=4),
            *_HOSTILE, meson,
            *(head + body + " ;" for body in _DERIVATIVE_OPERANDS),
            *split,
            "indices spacetime mu nu ;\nfields ginv ²W phi ;\nname t ;\n"
            "density ginv[mu,nu] * d[mu](phi) * d[nu](phi) ;",
            "indices spacetime mu nu ;\nfields ginv phi Lam ;\nname t ;\n"
            "density ( 1/2 - 3*i ) * g * Lam ^(1/2) * ginv [mu,nu] "
            "* d[mu](phi) * d[nu](phi ^2) * g ^2 ;",
            *(head + body + " ;" for body in _GROUPS),
            head + "(" * 101 + "phi" + ")" * 101 + " ;"]


@pytest.mark.hashseed
def test_parser_matches_reference_parser():
    """The parser that builds atom terms gives the canonical form of the
    parser that built a ``Partial`` per derivative, or the same error at
    the same place, on ``_reference_sources``."""
    kinds = set()
    for src in _reference_sources():
        got, want = _outcome(dsl.parse, src), _outcome(ref.parse, src)
        assert got == want, src
        kinds.add(type(want) is dsl.LagrangianDef)
    assert kinds == {True, False}


# memoized spellings under declarations they no longer meet, each with
# the outcome both parsers give: a label in the other alphabet, a dropped
# field, an undeclared label, derivatives nested to the bound (its
# repeated label is refused after the parse) and past it, repetitions
# past the factor bound
_MEMO_HEAD = "indices spacetime mu nu m ;\nindices frame a ;\n"
_MEMO_FIELDS = "fields ginv phi S ;\nname t ;\ndensity "
_MEMO_DENSITY = ("2/3 * ginv[mu,nu] * d[mu](phi) * d[nu](phi) * phi^3"
                 " + (1-2*i) * f^2 * ginv[mu,nu] * S[mu] * S[nu]"
                 " + gamma[a] * gamma[-a] * phi^4 ;")
_NEST = dsl._MAX_NESTING
_MEMO_REUSE = [
    (_MEMO_HEAD + _MEMO_FIELDS + _MEMO_DENSITY, dsl.LagrangianDef),
    ("indices frame mu ;\nindices spacetime nu ;\n" + _MEMO_FIELDS
     + _MEMO_DENSITY, ParseError),
    ("indices spacetime mu nu a ;\n" + _MEMO_FIELDS + _MEMO_DENSITY,
     ParseError),
    ("indices spacetime nu ;\nindices frame mu ;\n" + _MEMO_FIELDS
     + "d[mu](phi) ;", ParseError),
    (_MEMO_HEAD + "fields ginv S ;\nname t ;\ndensity " + _MEMO_DENSITY,
     UndeclaredField),
    ("indices spacetime mu ;\nindices frame a ;\n" + _MEMO_FIELDS
     + _MEMO_DENSITY, ParseError),
    (_MEMO_HEAD + _MEMO_FIELDS + "d[m](" * (_NEST - 1) + "d[mu](phi)"
     + ")" * (_NEST - 1) + " ;", MalformedIndex),
    (_MEMO_HEAD + _MEMO_FIELDS + "d[m](" * _NEST + "d[mu](phi)"
     + ")" * _NEST + " ;", ParseError),
    (_MEMO_HEAD + _MEMO_FIELDS + "phi^60000 ;", dsl.LagrangianDef),
    (_MEMO_HEAD + _MEMO_FIELDS + "phi^60000 * phi^60000 ;", ParseError),
    (_MEMO_HEAD + _MEMO_FIELDS + "phi^60000 * phi^40000 ;",
     dsl.LagrangianDef),
]


@pytest.mark.hashseed
def test_warm_memo_parses_as_the_reference_parser():
    """A memoized factor spelling parses as the reference parser parses
    it, or fails with its error at its place: over the sources of
    ``test_parser_matches_reference_parser`` parsed forward and then
    backward in one process, and on spellings memoized under
    declarations that a later source no longer makes."""
    dsl._FACTORS.clear()
    dsl._STATEMENTS.clear()
    sources = _reference_sources()
    for src in [*sources, *reversed(sources)]:
        assert _outcome(dsl.parse, src) == _outcome(ref.parse, src), src
    for src, kind in _MEMO_REUSE:
        got = _outcome(dsl.parse, src)
        assert got == _outcome(ref.parse, src), src
        assert (type(got) if kind is dsl.LagrangianDef else got[0]) is kind
    assert {"d[mu](phi)", "ginv[mu,nu]", "phi^60000"} <= dsl._FACTORS.keys()


def test_parse_builds_one_parser(monkeypatch):
    """``parse`` reads a source in one pass: one parser for a valid
    source, and one for a source that fails, which raises its error at
    its place."""
    built = []

    class Counted(dsl._Parser):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(dsl, "_Parser", Counted)
    dsl.parse(_SPLIT_HEAD + _SPLIT_SITES[0] + " ;")
    assert len(built) == 1
    e = _err(_SPLIT_HEAD + "phi^(1/2-3*i) ;", ParseError)
    assert len(built) == 2
    assert (e.line, e.col) == (4, 17) and "expected ')'" in str(e)


def test_emptying_the_memos_empties_the_factor_memo(monkeypatch):
    """``_make_room`` empties the factor memo with the term cache and the
    other memos, and parses that fill it again and again under a small
    limit give the same definitions."""
    docs = [dsl.render(gen.random_def(seed)) for seed in range(30)]
    want = [dsl.parse(doc) for doc in docs]
    assert dsl._FACTORS in ex._MEMOS and dsl._FACTORS
    monkeypatch.setattr(ex, "_TERM_CACHE_LIMIT", len(dsl._FACTORS))
    ex._make_room()
    assert not dsl._FACTORS and not ex._TERM_CACHE and not any(ex._MEMOS)
    monkeypatch.setattr(ex, "_TERM_CACHE_LIMIT", 5)
    assert [dsl.parse(doc) for doc in docs] == want
    assert len(dsl._FACTORS) <= 5


def test_make_def_canonicalizes():
    e = ex.scalar_field() * ex.scalar_field()
    L = dsl.make_def("t", e)
    assert L.parsed == ex.canonicalize(e)
    assert L.name == "t"


def test_render_expr_zero():
    assert dsl.render_expr(ex.Sum(())) == "0"


def _whole_text(items: tuple) -> str:
    """A term's factors rendered from the whole tuple, as before any text
    was kept: a run of an index-free atom is one power."""
    chunks, i = [], 0
    while i < len(items):
        f, j = items[i], i + 1
        if f.exponent is None and not f.indices and not f.derivs:
            while j < len(items) and items[j] == f:
                j += 1
        chunks.append(dsl._factor_chunk(f) + (f"^{j - i}" if j - i > 1
                                              else ""))
        i = j
    return " * ".join(chunks)


@pytest.mark.hashseed
def test_text_kept_per_atom_renders_the_whole_term(builtins_all):
    """Each term's text, from the chunks kept per atom with a run of a
    rider as one power (for every phi^k detg^j), is the text of its
    whole factor tuple, when first rendered and again from the kept
    chunks; the memo is keyed by atoms and holds every atom rendered."""
    exprs = [L.parsed for L in builtins_all.values()]
    exprs += [gen.random_expr(seed) for seed in range(200)]
    terms = [t for x in exprs
             for k, j in ((0, 0), (1, 0), (3, 1), (9, 0), (2, 1))
             for t in gen.times_riders(x, k, j).terms]
    for t in terms:
        assert dsl._factors_text(t.factors) == _whole_text(t.factors), t
    assert all(isinstance(f, ex.FieldAtom) for f in dsl._CHUNKS)
    assert set(dsl._CHUNKS) >= {f for t in terms for f in t.factors}
    for t in terms:
        assert dsl._factors_text(t.factors) == _whole_text(t.factors), t
