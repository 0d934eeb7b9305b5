"""Canonical forms, arithmetic, and term rewriting in the expression core."""

import collections
import enum
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference_canon as ref
import strategies as gen
from weylcheck import densities, dsl
from weylcheck import exprs as ex
from weylcheck.errors import (
    IndexArityMismatch,
    MalformedChain,
    MalformedIndex,
    WeylcheckError,
)
from weylcheck.exprs import CRat, I_UNIT, Product, Sum
from weylcheck.oracle import Assignment, _operand


def test_canonicalize_idempotent_on_builtins(builtins_all):
    for L in builtins_all.values():
        c = ex.canonicalize(L.parsed)
        assert ex.canonicalize(c) == c


@given(st.integers(0, 10_000))
def test_canonicalize_idempotent_on_generated(seed):
    s = gen.random_expr(seed)
    assert ex.canonicalize(s) == s


@given(st.integers(0, 10_000))
def test_like_terms_double(seed):
    s = gen.random_expr(seed)
    doubled = Sum(tuple(Product(t.coeff * CRat(2), t.factors)
                        for t in s.terms))
    assert ex.canonicalize(s + s) == ex.canonicalize(doubled)


@given(st.integers(0, 10_000))
def test_self_difference_vanishes(seed):
    s = gen.random_expr(seed)
    assert ex.is_zero(s - s)


@given(st.integers(0, 10_000))
def test_factor_order_irrelevant(seed):
    s = gen.random_expr(seed)
    rng = random.Random(seed + 1)
    shuffled = []
    for t in s.terms:
        fs, chain = ex._split_chain(t.factors)
        rng.shuffle(fs)
        shuffled.append(Product(t.coeff, tuple(fs + chain)))
    assert ex.canonicalize(Sum(tuple(shuffled))) == s


@given(st.integers(0, 10_000))
def test_dummy_names_irrelevant(seed):
    """Renaming dummy labels in the source text cannot change the
    canonical form."""
    s = gen.random_expr(seed)
    doc = dsl.render(dsl.make_def("gen", s))
    renamed = re.sub(r"\b(mu|fa)(\d+)\b", r"w\2\1", doc)
    assert dsl.parse(renamed).parsed == s


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_addition_canonical_agnostic(seed_a, seed_b):
    a = gen.random_expr(seed_a, require_scalar=True)
    b = gen.random_expr(seed_b, require_scalar=True)
    assert ex.canonicalize(a + b) == \
        ex.canonicalize(ex.canonicalize(a) + ex.canonicalize(b))


def _metric_cycle(n, tag=""):
    """g[a0,b0] ginv[b0,a1] g[a1,b1] ... closing back on a0."""
    e = ex.ONE
    for i in range(n):
        e = e * ex.metric(f"{tag}a{i}", f"{tag}b{i}") \
            * ex.inv_metric(f"{tag}b{i}", f"{tag}a{(i + 1) % n}")
    return e


def _index_cycle(n):
    """``_metric_cycle(n)`` spelled g[i0,i1] ginv[i1,i2] ... closing on
    i0."""
    e = ex.ONE
    for i in range(0, 2 * n, 2):
        e = e * ex.metric(f"i{i}", f"i{i + 1}") \
            * ex.inv_metric(f"i{i + 1}", f"i{(i + 2) % (2 * n)}")
    return e


def _copies(k):
    """k copies of A[x] S[y] ginv[x,y], each with its own dummies."""
    e = ex.ONE
    for i in range(k):
        e = e * ex.em_vector(f"x{i}") * ex.weyl_vector(f"y{i}") \
            * ex.inv_metric(f"x{i}", f"y{i}")
    return e


def _derivative_stack(n):
    """d[m0](...d[m<n-1>](phi)...) with ginv contracting its indices in
    pairs."""
    e = ex.scalar_field()
    for k in reversed(range(n)):
        e = ex.d(f"m{k}", e)
    for k in range(0, n, 2):
        e = e * ex.inv_metric(f"m{k}", f"m{k + 1}")
    return e


def _symmetric_terms():
    """Terms whose tied factors are images of each other under a
    relabeling, so many partial candidates are equivalent."""
    ring = ex.ONE
    for i in range(2):
        ring = ring * ex.inv_metric(f"x{i}", f"y{i}") \
            * ex.weyl_vector(f"x{i}") * ex.weyl_vector(f"y{i}")
    bar, psi = ex.fermion_bar(), ex.fermion()
    sigma_eta = Product(CRat(1), (ex.minkowski("a", "b"), bar,
                                  ex.sigma("a", "b"), psi))
    ginv = ex.inv_metric
    gradient = ginv("a", "b") * ginv("c", "e") \
        * ex.d("a", ex.d("c", ex.log_deriv("b"))) \
        * ex.d("e", ex.scalar_field())
    return [ring, _metric_cycle(2), _metric_cycle(3), sigma_eta,
            _derivative_stack(4), gradient]


def _searched(coeff, factors):
    """``exprs._canonical_term`` with an empty term cache, so that the
    search itself runs instead of a search remembered from an earlier
    term."""
    saved, ex._TERM_CACHE = ex._TERM_CACHE, {}
    try:
        return ex._canonical_term(coeff, factors)
    finally:
        ex._TERM_CACHE = saved


def _differential_terms():
    """Raw terms of every builtin and of seeded generator draws, then the
    flattened skeleton of each canonical form found, paired with that
    skeleton's factors (None for raw terms)."""
    raw = []
    for build in densities._BUILDERS.values():
        raw.extend(ex._flatten(build()))
    for e in _symmetric_terms():
        raw.extend(ex._flatten(e))
    for seed in range(300):
        raw.extend(ex._flatten(gen.random_term(random.Random(seed))))
        raw.extend(ex._flatten(gen.random_expr(seed)))
    out = [(t, None) for t in raw]
    for coeff, factors in raw:
        res = ex._canonical_term(coeff, factors)
        if res is not None:
            out.extend((t, res[1])
                       for t in ex._flatten(Product(CRat(1), res[1])))
    return out


@pytest.mark.hashseed
def test_search_matches_exhaustive_reference():
    """The pruned search returns the same coefficient and skeleton as the
    exhaustive enumeration, or both find that the term vanishes.  A
    canonical skeleton is its own representative with coefficient 1,
    which the term cache relies on."""
    outcomes = set()
    compared = 0
    for (coeff, factors), skel in _differential_terms():
        try:
            want = ref.canonical_term(coeff, factors)
        except ref.TooManyCandidates:
            continue
        assert _searched(coeff, factors) == want, factors
        compared += 1
        if skel is not None:
            assert want == (CRat(1), skel)
        elif want is None:
            outcomes.add("vanishes")
        else:
            outcomes.add("negated" if want[0] == -coeff else "kept")
    assert compared > 1000
    assert outcomes == {"vanishes", "negated", "kept"}


@pytest.mark.hashseed
def test_gradient_terms_match_exhaustive_reference():
    """Terms holding derivatives of D, whose indices the search may
    permute together with D's own, get the reference's canonical form,
    and each canonical skeleton is its own representative."""
    D, ginv = ex.log_deriv, ex.inv_metric
    raw = []
    for e in (ginv("m", "n") * ex.d("m", D("n")),
              ginv("a", "b") * ginv("c", "e") * ex.d("a", D("c"))
              * ex.d("b", D("e")),
              ginv("a", "b") * ginv("c", "e") * ex.d("a", D("c"))
              * ex.d("e", D("b")) * ex.weyl_vector("x"),
              ginv("a", "b") * ginv("c", "e") * ex.d("a", ex.d("b", D("c")))
              * ex.weyl_vector("e")):
        raw.extend(ex._flatten(e))

    def to_gradient(f):
        if f.derivs and f.kind == ex.Kind.WEYL_VECTOR:
            return ex.FieldAtom(ex.Kind.LOG_DERIV, f.indices, None, f.derivs)
        return f

    # generated terms with every derivative of S made one of D
    for seed in range(2000):
        for coeff, factors in ex._flatten(
                gen.random_term(random.Random(seed))):
            grad = [to_gradient(f) for f in factors]
            if grad != factors:
                raw.append((coeff, grad))
    compared = 0
    for coeff, factors in raw:
        want = ref.canonical_term(coeff, factors)
        assert _searched(coeff, factors) == want, factors
        if want is not None:
            (c, fs), = ex._flatten(Product(CRat(1), want[1]))
            assert _searched(c, fs) == (CRat(1), want[1])
        compared += 1
    assert compared > 80


def test_symmetric_terms_canonicalize():
    """Runs of identical factors are one ordering, not n! of them."""
    phi = ex.scalar_field()
    for n in (9, 12):
        assert ex.canonicalize(phi ** n) == \
            Sum((Product(CRat(1), (phi,) * n),))
    s = gen.random_expr(384)
    assert ex.canonicalize(s) == s


def _relabeled(e, seed):
    """The one term of ``e`` as (coeff, factors), its labels renamed and
    its factors shuffled at random by ``seed``."""
    (coeff, factors), = ex._flatten(e)
    labels = sorted({ix.label for f in factors
                     for ix in ex._slots_of_factor(f)})
    rng = random.Random(seed)
    ren = dict(zip(labels, rng.sample(labels, len(labels))))
    shuffled = [ex._rename_in_factor(f, ren)[0] for f in factors]
    rng.shuffle(shuffled)
    return coeff, shuffled


def _forms_under_relabeling(e):
    """The canonical forms of one term under six random renamings of its
    labels and orders of its factors."""
    return {_searched(*_relabeled(e, seed)) for seed in range(6)}


def _in_limited_child(code):
    """Run ``code`` in a child limited to 1 GiB of address space, so that
    a search which lists factorially many orders fails there instead of
    exhausting the machine.  Returns (exit code, stdout, end of stderr)."""
    tests = Path(__file__).resolve().parent
    # one BLAS thread: numpy reserves address space per thread at import
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests),
                                           str(tests.parent / "src")]))
    limit = ("import resource\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")
    p = subprocess.run([sys.executable, "-c", limit + code],
                       capture_output=True, text=True, env=env, timeout=120)
    return p.returncode, p.stdout, p.stderr[-500:]


@pytest.mark.hashseed
def test_symmetric_terms_one_form_under_relabeling():
    """Terms past the reference's reach (147456 candidates each for the
    cycles, 8! orders of the stack's indices) get one canonical form
    whatever their dummy names and factor order; the 16-level stack runs
    in a limited child."""
    for e in (_metric_cycle(4), _metric_cycle(2, "p") * _metric_cycle(2, "q"),
              _derivative_stack(8)):
        assert len(_forms_under_relabeling(e)) == 1
    got = _in_limited_child(
        "import test_exprs as t\n"
        "print(len(t._forms_under_relabeling(t._derivative_stack(16))))\n")
    assert got[:2] == (0, "1\n"), got[2]


def _stack_placed_first(n):
    """n derivatives of ginv whose indices only the n factors after it
    close, so the search places it while all n are unnamed."""
    e = ex.inv_metric("p", "q")
    for k in reversed(range(n)):
        e = ex.d(f"m{k}", e)
    for k in range(n):
        e = e * ex.d(f"z{k}", ex.inv_tetrad(f"f{k}", f"m{k}"))
    return e


def test_search_tries_orders_without_listing_them():
    """A factor's naming orders are generated one at a time, so a stack
    placed with 12 unnamed dummies reaches the cap and is refused,
    instead of storing its 12! orders first."""
    got = _in_limited_child(
        "import test_exprs as t\n"
        "from weylcheck import exprs as ex\n"
        "from weylcheck.errors import MalformedIndex\n"
        "ex._SEARCH_CAP = 10\n"
        "try:\n"
        "    ex.canonicalize(t._stack_placed_first(12))\n"
        "except MalformedIndex as err:\n"
        "    print(err)\n")
    assert got[:2] == (0, "term too symmetric to canonicalize\n"), got[2]


def test_search_refuses_past_its_cap(monkeypatch):
    """The cap counts the partial candidates the search extends."""
    monkeypatch.setattr(ex, "_SEARCH_CAP", 10)
    monkeypatch.setattr(ex, "_TERM_CACHE", {})
    with pytest.raises(MalformedIndex, match="too symmetric"):
        ex.canonicalize(_metric_cycle(3))


class _CountingCap(int):
    """A search cap that counts the extensions tested against it: the
    search tests ``visited > _SEARCH_CAP`` once per extension, and Python
    hands that test to this subclass's ``__lt__``."""

    def __new__(cls, value):
        cap = super().__new__(cls, value)
        cap.tested = 0
        return cap

    def __lt__(self, visited):
        self.tested += 1
        return int(self) < visited


@pytest.mark.parametrize("build, largest, total", [
    (lambda: densities.builtin("yangmills").parsed, 47, 167),
    (lambda: _metric_cycle(6), 912, 912),
    (lambda: _index_cycle(6), 912, 912),
    (lambda: _metric_cycle(7), 5422, 5422),
    (lambda: _index_cycle(7), 5422, 5422),
    (lambda: _copies(16), 184, 184),
], ids=["yangmills", "6-cycle", "6-cycle-i", "7-cycle", "7-cycle-i",
        "16-copies"])
@pytest.mark.hashseed
def test_search_cost_cannot_grow(monkeypatch, build, largest, total):
    """Searched afresh, each input gets its form with the cap lowered to
    its largest search, and all its searches together extend at most
    ``total`` partial candidates: the counts the search needs today."""
    monkeypatch.setattr(ex, "_TERM_CACHE", {})
    monkeypatch.setattr(densities, "_CACHE", {})
    cap = _CountingCap(largest)
    monkeypatch.setattr(ex, "_SEARCH_CAP", cap)
    assert ex.canonicalize(build()).terms
    assert 0 < cap.tested <= total, cap.tested


@pytest.mark.parametrize("build, total", [
    (lambda: ex.fermion_bar() * ex.fermion() * ex.scalar_field(), 0),
    (lambda: ex.fermion_bar() * ex.gamma("b") * ex.fermion()
     * ex.scalar_field(), 0),
    (lambda: ex.fermion_bar() * ex.gamma("a") * ex.fermion()
     * ex.minkowski("a", "b"), 2),
], ids=["bilinear", "free-gamma", "contracted-gamma"])
@pytest.mark.hashseed
def test_dummy_free_chain_items_cost_no_search(monkeypatch, build, total):
    """A chain item without dummies (Psibar, Psi, a gamma with a free
    index) names nothing and has one key in every candidate, so, like a
    factor without dummies, it takes no extension: only the contracted
    gamma and eta are searched."""
    monkeypatch.setattr(ex, "_TERM_CACHE", {})
    cap = _CountingCap(total)
    monkeypatch.setattr(ex, "_SEARCH_CAP", cap)
    assert ex.canonicalize(build()).terms
    assert cap.tested == total


def _dp_searched(coeff, factors):
    """``_canonical_term`` by the search ``exprs`` used before it named a
    symmetric group's dummies as a set and bounded its states."""
    return ref.canonical_term(coeff, factors, ref.dp_least_candidate)


@pytest.mark.hashseed
def test_search_matches_dp_reference():
    """The search gets the sign and factors of the one it replaced, or
    finds the term vanishes when that one does: on every differential
    term, and on cycles of g and ginv up to length 6 in both spellings
    and up to 11 copies of A S ginv, each as written and under six
    relabelings.  The reference runs once per density, on the first
    spelling as written: its answer depends on neither spelling nor
    order, and relabeled it needs up to 80 s for the 11 copies."""
    outcomes = set()
    for (coeff, factors), _ in _differential_terms():
        want = _dp_searched(coeff, factors)
        assert _searched(coeff, factors) == want, factors
        outcomes.add("vanishes" if want is None else
                     "negated" if want[0] == -coeff else "kept")
    assert outcomes == {"vanishes", "negated", "kept"}
    families = [(_metric_cycle(n), _index_cycle(n)) for n in range(1, 7)]
    families += [(_copies(k),) for k in range(1, 12)]
    for spellings in families:
        want = _dp_searched(*ex._flatten(spellings[0])[0])
        assert want is not None
        for e in spellings:
            assert _searched(*ex._flatten(e)[0]) == want
            for seed in range(6):
                assert _searched(*_relabeled(e, seed)) == want, (e, seed)


@pytest.mark.hashseed
def test_search_reaches_past_the_old_cap():
    """Inputs the search it replaced refused after 50 000 extensions get
    one canonical form: 12 copies of A S ginv as written and relabeled,
    and the 6- and 7-cycles spelled with i labels as well as with a and
    b (that search refused the 7-cycle in both spellings)."""
    inputs = [[ex._flatten(_copies(12))[0], _relabeled(_copies(12), 0)]]
    inputs += [[ex._flatten(e)[0] for e in (_metric_cycle(n), _index_cycle(n))]
               for n in (6, 7)]
    for terms in inputs:
        forms = {_searched(*term) for term in terms}
        assert len(forms) == 1 and None not in forms, forms


def test_power_expands():
    phi = ex.scalar_field()
    assert ex.equal(phi ** 4, phi * phi * phi * phi)
    assert ex.equal(phi ** 1, phi)


def test_sigma_antisymmetry():
    bar, psi = ex.fermion_bar(), ex.fermion()

    def chain(*items):
        return Product(CRat(1), items)

    s_ab = chain(bar, ex.sigma("a", "b", up1=False, up2=False), psi)
    s_ba = chain(bar, ex.sigma("b", "a", up1=False, up2=False), psi)
    assert ex.is_zero(s_ab + s_ba)
    assert ex.equal(s_ab, Product(CRat(-1), s_ba.factors))
    # contracted slots of one sigma: an antisymmetric trace
    assert ex.is_zero(chain(bar, ex.sigma("a", "a", up1=True, up2=False),
                            psi))


def test_structure_constants_are_opaque():
    """No permutation symmetry is imposed symbolically; densities use a
    single orientation so cancellations stay structural."""
    close = (ex.minkowski("a", "z0") * ex.minkowski("b", "z1")
             * ex.minkowski("c", "z2"))
    f_abc = ex.structure_const("a", "b", "c") * close
    f_bac = ex.structure_const("b", "a", "c") * close
    assert not ex.is_zero(f_abc + f_bac)
    assert not ex.equal(f_abc, f_bac)


def test_metric_symmetry():
    assert ex.equal(ex.metric("a", "b"), ex.metric("b", "a"))
    assert ex.equal(ex.inv_metric("a", "b"), ex.inv_metric("b", "a"))
    assert ex.equal(ex.minkowski("a", "b"), ex.minkowski("b", "a"))


def test_crat_arithmetic():
    assert I_UNIT * I_UNIT == CRat(-1)
    assert CRat(2) ** -1 == CRat(Fraction(1, 2))
    assert (CRat(1, Fraction(1)) * CRat(1, Fraction(-1))
            == CRat(2))  # (1+i)(1-i) = 2
    assert CRat(3).is_zero() is False
    assert CRat(0).is_zero() is True
    # equal values built in different ways are equal and hash equal
    for same in ((CRat(Fraction(2, 4)), CRat(Fraction(1, 2))),
                 (CRat(1), CRat(1, 0), CRat(Fraction(1)), ex._UNIT)):
        assert len({(c.re, c.im) for c in same}) == 1
        assert all(c == same[0] for c in same)
        assert len({hash(c) for c in same}) == 1


_FRACS = st.fractions(-20, 20, max_denominator=9)


def _crat_and_pair(shape):
    """A CRat of the given shape with the (re, im) Fractions it holds."""
    if shape == "unit":
        return st.just((ex._UNIT, (Fraction(1), Fraction(0))))
    im = st.just(Fraction(0)) if shape == "real" else _FRACS.filter(bool)
    return st.tuples(_FRACS, im).map(lambda p: (CRat(*p), p))


def _pair_mul(p, q):
    (a, b), (c, d) = p, q
    return (a * c - b * d, a * d + b * c)


def _pair_div(p, q):
    (a, b), (c, d) = p, q
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


def _pair_pow(p, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _pair_mul(out, p)
    return out if k >= 0 else _pair_div((Fraction(1), Fraction(0)), out)


@pytest.mark.parametrize("shapes", [
    ("real", "real"), ("real", "complex"), ("complex", "real"),
    ("complex", "complex"), ("unit", "real"), ("complex", "unit"),
    ("unit", "unit")])
@given(data=st.data())
def test_crat_matches_fraction_pairs(shapes, data):
    x, p = data.draw(_crat_and_pair(shapes[0]))
    y, q = data.draw(_crat_and_pair(shapes[1]))
    k = data.draw(st.integers(-3, 3))

    def holds(c, pair):
        assert type(c.re) is Fraction and type(c.im) is Fraction
        assert (c.re, c.im) == pair

    holds(x + y, (p[0] + q[0], p[1] + q[1]))
    holds(x - y, (p[0] - q[0], p[1] - q[1]))
    holds(-x, (-p[0], -p[1]))
    holds(x * y, _pair_mul(p, q))
    holds(y * x, _pair_mul(p, q))
    holds(x * 3, _pair_mul(p, (Fraction(3), Fraction(0))))
    if q == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        holds(x / y, _pair_div(p, q))
    if k >= 0 or p != (0, 0):
        holds(x ** k, _pair_pow(p, k))
    assert (x == y) is (p == q)
    if p == q:
        assert hash(x) == hash(y)
    holds(ex._UNIT, (Fraction(1), Fraction(0)))


def test_crat_hands_an_expr_operand_over():
    """A CRat on the left of an Expr builds what a plain number there
    builds, and never equals the Expr; negating an Expr builds -1 times
    it."""
    phi = ex.scalar_field()
    c = ex.canonicalize
    assert c(-phi) == Sum((Product(CRat(-1), (phi,)),))
    assert c(CRat(3) * phi) == c(3 * phi)
    assert c(I_UNIT * phi) == c(Product(I_UNIT, (phi,)))
    assert c(CRat(1) + phi) == c(1 + phi)
    assert c(CRat(1) - phi) == c(1 - phi)
    assert (CRat(3) == phi) is False and (CRat(3) != phi) is True


def test_flatten_multiplies_no_unit_coefficients(monkeypatch):
    """Bare atoms and plain derivatives flatten with the shared unit
    coefficient, and a unit coefficient is never multiplied."""
    e = ex.scalar_field() * ex.em_vector("n") * ex.d("m", ex.scalar_field())
    calls = []
    mul = CRat.__mul__

    def counting(self, o):
        calls.append((self, o))
        return mul(self, o)

    monkeypatch.setattr(CRat, "__mul__", counting)
    (coeff, factors), = ex._flatten(e)
    assert calls == []
    assert coeff == CRat(1) and len(factors) == 3


def test_flattening_a_long_product_is_linear():
    """Each term's factor lists are joined once, in order, so a product
    of n atoms flattens in O(n) (it was O(n^2): 0.77 s at 20 000)."""
    phi, a, b, c = (ex.scalar_field(), ex.em_vector("m"),
                    ex.weyl_vector("m"), ex.log_deriv("m"))
    e = Product(ex._UNIT, (a,) + (phi,) * 40_000 + (ex.d("m", phi),))
    (_, dphi), = ex._flatten(ex.d("m", phi))
    t0 = time.perf_counter()
    (_, factors), = ex._flatten(e)
    elapsed = time.perf_counter() - t0
    assert factors == [a] + [phi] * 40_000 + dphi
    assert elapsed < 0.5, elapsed
    got = [fs for _, fs in ex._flatten((a + b) * phi * (b + c))]
    assert got == [[a, phi, b], [a, phi, c], [b, phi, b], [b, phi, c]]


def test_multiplying_out_a_long_product_is_linear():
    """A product of plain atoms now flattens as it stands, so the linear
    join of ``_distribute`` is timed on a product that must be
    multiplied out: one sum among 40 000 atoms."""
    phi, a, b = ex.scalar_field(), ex.em_vector("m"), ex.weyl_vector("m")
    e = Product(ex._UNIT, (a + b,) + (phi,) * 40_000)
    t0 = time.perf_counter()
    got = ex._flatten(e)
    elapsed = time.perf_counter() - t0
    assert [fs for _, fs in got] == [[a] + [phi] * 40_000,
                                     [b] + [phi] * 40_000]
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("work", ["catalog", "yangmills-global"])
@pytest.mark.hashseed
def test_each_prepared_skeleton_is_searched_once(monkeypatch, work):
    """A rescaled term Lam^w * X holds the factors of X, which the
    search has already seen: the term cache is keyed on a term's
    factors without the scalars, so no skeleton is searched twice."""
    from weylcheck import oracle, scale
    from weylcheck.report import Mode
    monkeypatch.setattr(ex, "_TERM_CACHE", {})
    monkeypatch.setattr(densities, "_CACHE", {})
    monkeypatch.setattr(oracle, "_CATALOG", None)
    searched = []
    search = ex._least_candidate

    def recording(factors, chain_items, dummies, free_labels):
        searched.append((tuple(factors), tuple(chain_items)))
        return search(factors, chain_items, dummies, free_labels)

    monkeypatch.setattr(ex, "_least_candidate", recording)
    if work == "catalog":
        oracle.catalog()
    else:
        scale.check_invariance(densities.builtin("yangmills"), Mode.GLOBAL)
    assert searched
    repeats = len(searched) - len(set(searched))
    assert repeats == 0


@pytest.mark.hashseed
def test_scalars_reuse_the_search_of_their_skeleton(monkeypatch):
    """Once X is canonical, f^2 * Lam^3 * X is a term-cache hit on the
    factors of X: nothing is prepared again, and the scalars lead the
    canonical factors of X."""
    monkeypatch.setattr(ex, "_TERM_CACHE", {})
    x = ex.inv_metric("m", "n") * ex.weyl_vector("m") \
        * ex.d("n", ex.scalar_field())
    (t,) = ex.canonicalize(x).terms
    prepared = []
    prepare = ex._prepare_term

    def recording(factors):
        prepared.append(factors)
        return prepare(factors)

    monkeypatch.setattr(ex, "_prepare_term", recording)
    got = ex.canonicalize(ex.coupling("f", 2) * ex.lam(3) * x)
    assert prepared == []
    assert got.terms == (Product(t.coeff, (ex.coupling("f", 2), ex.lam(3))
                                 + t.factors),)


@pytest.mark.hashseed
def test_term_cache_keys_hold_no_scalars(monkeypatch):
    """After a catalog build every term-cache key is a tuple of factor
    nodes without a coupling or a Lam power."""
    from weylcheck import oracle
    monkeypatch.setattr(ex, "_TERM_CACHE", {})
    monkeypatch.setattr(densities, "_CACHE", {})
    monkeypatch.setattr(oracle, "_CATALOG", None)
    oracle.catalog()
    assert ex._TERM_CACHE
    for key in ex._TERM_CACHE:
        assert isinstance(key, tuple), key
        for f in key:
            assert isinstance(f, ex.FieldAtom), key
            assert f.exponent is None, key


def test_repeated_same_variance_rejected():
    bad = ex.metric("a", "b") * ex.metric("a", "c")
    with pytest.raises(MalformedIndex):
        ex.canonicalize(bad)


def test_triple_label_rejected():
    bad = (ex.inv_metric("a", "b") * ex.metric("a", "c")
           * ex.em_vector("a"))
    with pytest.raises(MalformedIndex):
        ex.canonicalize(bad)


def test_mixed_free_indices_rejected():
    with pytest.raises(MalformedIndex):
        ex.canonicalize(ex.em_vector("m") + ex.weyl_vector("n"))


_ST, _FR = ex.Alphabet.SPACETIME, ex.Alphabet.FRAME
_UP, _DN = ex.Variance.UP, ex.Variance.DOWN


_FIXED_BUILDERS = [
    (ex.metric, ex.Kind.METRIC, [(_ST, _DN), (_ST, _DN)]),
    (ex.inv_metric, ex.Kind.INV_METRIC, [(_ST, _UP), (_ST, _UP)]),
    (ex.minkowski, ex.Kind.MINKOWSKI, [(_FR, _DN), (_FR, _DN)]),
    (ex.minkowski_up, ex.Kind.MINKOWSKI_UP, [(_FR, _UP), (_FR, _UP)]),
    (ex.det_factor, ex.Kind.DET_FACTOR, []),
    (ex.tetrad, ex.Kind.TETRAD, [(_FR, _UP), (_ST, _DN)]),
    (ex.inv_tetrad, ex.Kind.INV_TETRAD, [(_FR, _DN), (_ST, _UP)]),
    (ex.scalar_field, ex.Kind.SCALAR, []),
    (ex.em_vector, ex.Kind.EM_VECTOR, [(_ST, _DN)]),
    (ex.ym_vector, ex.Kind.YM_VECTOR, [(_FR, _UP), (_ST, _DN)]),
    (ex.weyl_vector, ex.Kind.WEYL_VECTOR, [(_ST, _DN)]),
    (ex.log_deriv, ex.Kind.LOG_DERIV, [(_ST, _DN)]),
    (ex.structure_const, ex.Kind.STRUCTURE_CONST,
     [(_FR, _UP), (_FR, _UP), (_FR, _UP)]),
    (ex.fermion, ex.Kind.FERMION, []),
    (ex.fermion_bar, ex.Kind.FERMION_BAR, []),
    (ex.identity_spinor, ex.CliffordKind.IDENTITY, []),
]


@pytest.mark.parametrize("builder, kind, slots", _FIXED_BUILDERS,
                         ids=[kind.value for _, kind, _ in _FIXED_BUILDERS])
def test_builder_makes_the_indices_written_out(builder, kind, slots):
    """Each builder of a kind with fixed slots takes its labels in slot
    order and gives them the alphabet and variance written out here."""
    labels = [f"i{k}" for k in range(len(slots))]
    want = tuple(ex.Index(lab, alph, var)
                 for lab, (alph, var) in zip(labels, slots))
    assert builder(*labels) == ex.FieldAtom(kind, want)


def _set_re():
    ex.CRat(1).re = Fraction(2)


_PSI, _PSIBAR, _PHI = ex.fermion(), ex.fermion_bar(), ex.scalar_field()


@pytest.mark.parametrize("build, error, message", [
    (lambda: ex.canonicalize(ex.gamma("a") * _PSIBAR * _PSI),
     MalformedChain, "conjugate spinor must open its block"),
    (lambda: ex.canonicalize(_PSIBAR * _PSI * ex.gamma("a")),
     MalformedChain, "spinor must close its block"),
    (lambda: ex.canonicalize(_PSIBAR), MalformedChain,
     "spinor blocks must be closed bilinears"),
    (lambda: ex.FieldAtom(ex.Kind.METRIC, (ex.st_lo("a"),)), MalformedIndex,
     "g takes 2 indices, got 1"),
    (lambda: ex.metric("a", "b", "c"), MalformedIndex,
     "g takes 2 indices, got 3"),
    (lambda: ex.scalar_field("x"), MalformedIndex,
     "phi takes 0 indices, got 1"),
    (lambda: ex.FieldAtom(ex.Kind.EM_VECTOR, (ex.Index("a", _ST, _UP),)),
     MalformedIndex, "bad slot a on A"),
    (lambda: ex.FieldAtom(ex.Kind.LAMBDA_POWER), MalformedIndex,
     "Lambda power needs an exponent"),
    (lambda: ex.FieldAtom(ex.Kind.SCALAR, (), Fraction(2)), MalformedIndex,
     "exponent only valid on Lambda powers"),
    (lambda: ex.coupling("h"), MalformedIndex, "unknown coupling 'h'"),
    (lambda: ex.Partial(ex.fr_lo("a"), _PHI), MalformedIndex,
     "derivative index must be spacetime-lower"),
    (lambda: _PHI ** 0, TypeError, "positive integers"),
    (lambda: _PHI + "x", TypeError, "cannot coerce 'x' to Expr"),
    (lambda: "x" * _PHI, TypeError, "cannot coerce 'x' to Expr"),
    (lambda: CRat(1) / _PHI, TypeError, "unsupported operand type(s) for /"),
    (lambda: ex.canonicalize(Product(CRat(1), (_PHI, 3))), TypeError,
     "cannot flatten 3"),
    (_set_re, AttributeError, "CRat is immutable"),
], ids=["bar-inside", "psi-inside", "open-bilinear", "arity",
        "builder-extra-label", "builder-label-on-scalar", "slot",
        "lam-exponent", "stray-exponent", "coupling", "derivative-index",
        "power", "coerce", "coerce-left", "divide-by-expr",
        "product-of-non-expr", "crat-immutable"])
def test_expression_api_checks_its_input(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_free_indices():
    e = ex.inv_metric("m", "n") * ex.d("m", ex.scalar_field())
    frees = ex.free_indices(e)
    assert {ix.label for ix in frees} == {"n"}
    assert ex.free_indices(ex.scalar_field() ** 2) == frozenset()
    assert ex.free_indices(ex.scalar_field() - ex.scalar_field()) == \
        frozenset()


def test_crat_equality_keeps_the_hash_contract():
    """A real CRat equals its int or Fraction value and hashes as it
    does, so a set holds them once; against any other operand ``==``
    answers False instead of raising."""
    for c, v in ((CRat(2), 2), (CRat(-3), -3), (CRat(0), 0),
                 (CRat(Fraction(1, 2)), Fraction(1, 2))):
        assert c == v and v == c and hash(c) == hash(v)
        assert len({c, v}) == 1
    z = CRat(Fraction(1, 2), 3)
    assert z == CRat(Fraction(1, 2), 3) and hash(z) == hash(
        CRat(Fraction(1, 2), 3))
    assert z != Fraction(1, 2) and Fraction(1, 2) != z
    assert I_UNIT != 0 and I_UNIT != 1
    for c in (CRat(1), I_UNIT):
        for other in (None, "x", "1", 1j, 1 + 0j):
            assert (c == other) is False and (other == c) is False
            assert c != other


def test_set_coupling_folds_value():
    phi = ex.scalar_field()
    e = Product(CRat(2), (ex.coupling("f", 2), phi))
    got = ex.set_coupling(e, "f", Fraction(1, 2))
    assert got == ex.canonicalize(Product(CRat(Fraction(1, 2)), (phi,)))


def test_coupling_powers_are_integers_of_either_type():
    """A coupling's power is an integer.  An integral Fraction is the
    equal int's atom, so a live one is what ``coupling`` hands out, and
    set_coupling folds it all the same."""
    keep = ex.FieldAtom(ex.CouplingKind.F, (), Fraction(2))
    assert ex.coupling("f", 2) is keep
    e = ex.coupling("f", 2) * ex.scalar_field()
    assert ex.set_coupling(e, "f", 3) == ex.canonicalize(9 * ex.scalar_field())
    with pytest.raises(MalformedIndex, match="coupling exponents"):
        ex.coupling("f", Fraction(1, 2))


def test_set_coupling_zero_kills_terms():
    phi = ex.scalar_field()
    e = ex.coupling("f") * phi + phi * phi
    got = ex.set_coupling(e, "f", 0)
    assert got == ex.canonicalize(phi * phi)


def test_set_coupling_zero_at_negative_power_raises():
    e = ex.coupling("f", -1) * ex.scalar_field()
    with pytest.raises(ZeroDivisionError):
        ex.set_coupling(e, "f", 0)


def test_set_coupling_other_names_untouched():
    e = ex.coupling("e") * ex.coupling("g") * ex.scalar_field()
    got = ex.set_coupling(e, "f", 0)
    assert got == ex.canonicalize(e)


def test_set_coupling_rejects_an_unknown_coupling():
    """A misspelt coupling raises, as ``coupling`` does, instead of
    folding nothing, so a check such as "vanishes at f = 0" cannot pass
    vacuously."""
    e = ex.coupling("f") * ex.scalar_field()
    with pytest.raises(MalformedIndex, match="unknown coupling 'F'"):
        ex.set_coupling(e, "F", 0)


def test_derivative_chain_rule():
    phi = ex.scalar_field()
    prod = ex.d("m", phi * phi)
    expanded = Product(CRat(2), (phi, ex.d("m", phi)))
    assert ex.equal(prod, expanded)


def test_equal_factors_differentiated_once():
    """Leibniz on k equal commuting factors gives one raw term times k,
    not k equal raw terms: six nested levels of
    d[m5](phi*d[m4](phi*...d[m0](phi*phi)...)) flatten to their 203
    canonical terms (5040 raw terms otherwise)."""
    phi = ex.scalar_field
    e = ex.d("m0", phi() * phi())
    for k in range(1, 6):
        e = ex.d(f"m{k}", phi() * e)
    assert len(ex._flatten(e)) == 203
    assert len(ex.canonicalize(e).terms) == 203
    # chain items are differentiated where they stand
    bar, psi = ex.fermion_bar(), ex.fermion()
    assert len(ex._flatten(ex.d("m", bar * ex.gamma("a") * psi))) == 2


def test_count_atoms():
    e = ex.weyl_vector("m") * ex.weyl_vector("n") * ex.inv_metric("m", "n")
    assert ex.count_atoms(e, ex.Kind.WEYL_VECTOR) == 2
    assert ex.count_atoms(e, ex.Kind.SCALAR) == 0


def _density(body, labels):
    return dsl.parse(f"indices spacetime {labels} ;\nfields ginv phi ;\n"
                     f"name t ;\ndensity {body} ;\n").parsed


@pytest.mark.hashseed
def test_symmetric_pair_orientation_ignores_dummy_names():
    """Which way round a metric holds a dummy and a free label cannot
    depend on the dummy's name, or tie groups would order differently."""
    body = "d[a](ginv[b,x]) * d[b](ginv[a,y])"
    one = _density(body, "a b x y")
    other = _density(body.replace("b", "zz"), "a zz x y")
    assert one == other
    assert ex.is_zero(one - other)


def test_derivative_indices_commute():
    phi = ex.scalar_field()
    assert ex.canonicalize(ex.d("x", ex.d("y", phi))
                           - ex.d("y", ex.d("x", phi))) == ex.ZERO

    def in_chain(inner):
        return Product(CRat(1), (ex.inv_metric("a", "x"),
                                 ex.inv_metric("b", "y"), ex.em_vector("x"),
                                 ex.weyl_vector("y"), ex.fermion_bar(),
                                 inner))

    psi = ex.fermion()
    assert ex.is_zero(in_chain(ex.d("a", ex.d("b", psi)))
                      - in_chain(ex.d("b", ex.d("a", psi))))


def test_log_derivative_is_a_gradient():
    """D is the gradient of ln Lam, so its derivative is symmetric."""
    assert ex.canonicalize(ex.d("m", ex.log_deriv("n"))
                           - ex.d("n", ex.log_deriv("m"))) == ex.ZERO
    assert ex.is_zero(ex.d("a", ex.d("b", ex.log_deriv("c")))
                      - ex.d("c", ex.d("a", ex.log_deriv("b"))))


def test_orientations_agree_with_normal_form():
    """Every slot order ``ref.orientations`` offers for a node denotes the
    node times its sign: both normalize to one node, and the signs of
    the normalizations differ by exactly that sign."""
    nodes = [f for e in (ex.d("a", ex.log_deriv("b")),
                         ex.d("a", ex.d("b", ex.metric("c", "e"))),
                         ex.sigma("a", "b"))
             for _, fs in ex._flatten(e) for f in fs]
    for seed in range(500):
        for _, factors in ex._flatten(
                gen.random_term(random.Random(seed))):
            nodes.extend(factors)
    moved = 0
    for node in nodes:
        labels = {ix.label for ix in ex._slots_of_factor(node)}
        want, want_sign = ex._rename_in_factor(node, {})
        options = ref.orientations(node, labels)
        moved += len(options) > 1
        for v, s in options:
            got, got_sign = ex._rename_in_factor(v, {})
            assert (got, got_sign) == (want, s * want_sign), (node, v)
    assert moved > 100


def _dummy_labels(factors):
    seen = {}
    for ix in ex._term_slot_list(factors):
        seen[ix.label] = seen.get(ix.label, 0) + 1
    return sorted(lab for lab, n in seen.items() if n == 2)


def _renamed_term(coeff, factors, ren):
    sign = 1
    renamed = []
    for f in factors:
        nf, s = ex._rename_in_factor(f, ren)
        sign *= s
        renamed.append(nf)
    return coeff * CRat(sign), renamed


@pytest.mark.hashseed
def test_canonical_term_ignores_dummy_names_on_generated():
    """Renaming dummies so that they sort before and after the free
    labels z0.. leaves every generated term's canonical form alone."""
    failed = set()
    with_dummies = 0
    for seed in range(2000):
        for coeff, factors in ex._flatten(
                gen.random_term(random.Random(seed))):
            dummies = _dummy_labels(factors)
            if not dummies:
                continue
            with_dummies += 1
            want = _searched(coeff, factors)
            for first, second in (("a", "zz"), ("zz", "a")):
                ren = {lab: f"{(first, second)[i % 2]}{i}"
                       for i, lab in enumerate(dummies)}
                got = _searched(*_renamed_term(coeff, factors, ren))
                if got != want:
                    failed.add(seed)
    assert with_dummies > 600
    assert not failed, sorted(failed)


def _canonical_samples(builtins):
    for L in builtins.values():
        yield L.parsed
    for seed in range(200):
        # a fresh, unmarked Sum of the generated terms
        yield Sum(gen.random_expr(seed).terms)


def test_canonical_sum_is_returned_as_is(builtins_all):
    """A Sum that canonicalize returned comes back unchanged, the very
    same object, and the mark it carries changes no comparison."""
    for x in _canonical_samples(builtins_all):
        c = ex.canonicalize(x)
        assert ex.canonicalize(c) is c
        plain = Sum(c.terms)
        assert plain == c and hash(plain) == hash(c)
        assert repr(plain) == repr(c)
        assert ex.canonicalize(plain) == c


def test_rewrite_terms_keeps_splices_and_canonicalizes():
    phi, s_m = ex.scalar_field(), ex.weyl_vector("m")
    e = ex.canonicalize(phi ** 2 + ex.inv_metric("m", "n") * s_m
                        * ex.weyl_vector("n"))
    seen = []

    def keep(t):
        seen.append(t)
        return None

    assert ex.rewrite_terms(e, keep) is e
    assert tuple(seen) == e.terms

    def split_scalar(t):
        # phi^2 -> 2 phi^2 + phi * Lam^2 * phi (raw, unsorted) + phi^2
        if ex.count_atoms(t, ex.Kind.SCALAR) == 0:
            return None
        return Sum((2 * t, phi * ex.lam(2) * phi, t))

    got = ex.rewrite_terms(e, split_scalar)
    want = ex.canonicalize(3 * phi ** 2 + ex.lam(2) * phi ** 2
                           + ex.inv_metric("m", "n") * s_m
                           * ex.weyl_vector("n"))
    assert got == want and len(got.terms) == 3
    assert ex.canonicalize(got) is got


def _outcome(build):
    """The terms ``build()`` returns, or its error text."""
    try:
        return build().terms
    except WeylcheckError as err:  # the error is part of the outcome
        return f"{type(err).__name__}: {err}"


def _double_odd_terms(t):
    # a rewrite that keeps some terms and splices a raw sum for others
    if len(t.factors) % 2:
        return Sum((t, ex.lam(1) * t))
    return None


def _on_skeleton(fn, t):
    """t with fn applied as ``rewrite_terms`` applies it: to the factors
    after the scalars, with coefficient 1; None keeps t."""
    scalars, skeleton = ex._split_scalars(t.factors)
    r = fn(Product(CRat(1), skeleton))
    return t if r is None else Product(t.coeff, scalars + (r,))


@pytest.mark.hashseed
def test_marked_sums_pass_through_like_unmarked_copies():
    """The terms of a marked Sum bypass the per-term canonical form in
    ``canonicalize`` and ``rewrite_terms``.  On the digest seeds, every
    composition of marked Sums gives the terms, in the order, that the
    same composition of unmarked copies gives."""
    errors = 0
    for seed in range(300):
        a, b = gen.random_expr(seed), gen.random_expr(seed + 300)
        assert a._canonical and b._canonical
        ua, ub = Sum(a.terms), Sum(b.terms)
        c = CRat(Fraction(seed % 7 - 3, 2), seed % 3 - 1)
        k = Fraction(seed % 5 - 2, 1 + seed % 2)
        pairs = [
            (lambda: ex.canonicalize(a - b), lambda: ex.canonicalize(ua - ub)),
            (lambda: ex.canonicalize(Product(c, (a,))),
             lambda: ex.canonicalize(Product(c, (ua,)))),
            (lambda: ex.canonicalize(ex.lam(k) * a),
             lambda: ex.canonicalize(ex.lam(k) * ua)),
            (lambda: ex.rewrite_terms(a, _double_odd_terms),
             lambda: ex.canonicalize(Sum(tuple(
                 _on_skeleton(_double_odd_terms, t) for t in ua.terms)))),
        ]
        for marked, unmarked in pairs:
            got = _outcome(marked)
            assert got == _outcome(unmarked), seed
            errors += isinstance(got, str)
    # only a - b of sums with different free indices fails
    assert 0 < errors < 300


def test_composed_canonical_sums_are_not_canonicalized_again(monkeypatch):
    """``canonicalize(a - b)`` and ``c * a`` on marked Sums put no term
    in canonical form again, and ``rewrite_terms`` does so only for the
    terms its rewrite returns."""
    phi, s_m = ex.scalar_field(), ex.weyl_vector("m")
    a = ex.canonicalize(phi ** 2 + ex.inv_metric("m", "n") * s_m
                        * ex.d("n", phi))
    b = ex.canonicalize(phi ** 4 - ex.coupling("f") * phi ** 2)
    calls = []
    canonical_term = ex._canonical_term

    def counting(coeff, factors):
        calls.append(tuple(factors))
        return canonical_term(coeff, factors)

    monkeypatch.setattr(ex, "_canonical_term", counting)
    diff = ex.canonicalize(a - b)
    assert calls == []
    assert len(diff.terms) == 4 and not ex.canonicalize(b - a + diff).terms
    assert ex.canonicalize(3 * a).terms and calls == []
    # phi^2 is kept; the term with S is doubled
    got = ex.rewrite_terms(a, lambda t: 2 * t if len(t.factors) > 2
                           else None)
    assert len(calls) == 1
    assert got == ex.canonicalize(phi ** 2 + 2 * ex.inv_metric("m", "n")
                                  * s_m * ex.d("n", phi))


@pytest.mark.hashseed
def test_composition_renames_canonical_dummies_apart_in_products():
    """Two canonical forms both name their dummies mu0, mu1; their
    product renames one side's apart instead of pairing them four ways."""
    ginv, a_, s_ = ex.inv_metric, ex.em_vector, ex.weyl_vector
    aa = ex.canonicalize(ginv("a", "b") * a_("a") * a_("b"))
    ss = ex.canonicalize(ginv("c", "d") * s_("c") * s_("d"))
    assert ex.equal(aa * ss, ginv("a", "b") * a_("a") * a_("b")
                    * ginv("c", "d") * s_("c") * s_("d"))
    # a dummy that another factor uses as a free label is renamed too
    free = ginv("mu0", "x") * a_("x")
    assert ex.equal(free * ss, ginv("mu0", "x") * a_("x") * ginv("c", "d")
                    * s_("c") * s_("d"))


@pytest.mark.hashseed
def test_composition_renames_only_what_clashes():
    """A factor that shares no label with a canonical form leaves the
    form's term whole, its own atoms, so the term cache keys it as it
    stands; a factor that names one of its dummies renames that one."""
    ginv, s_ = ex.inv_metric, ex.weyl_vector
    c = ex.canonicalize(ginv("c", "d") * s_("c") * s_("d"))
    (term,) = c.terms
    (_, fs), = ex._flatten(ex.scalar_field() * c)
    assert all(f is g for f, g in zip(fs[1:], term.factors))
    assert len(fs) == 1 + len(term.factors)
    (_, fs), = ex._flatten(ex.em_vector("mu0") * c)
    labels = [ix.label for ix in ex._term_slot_list(term.factors)]
    assert "mu0" in labels and "mu1" in labels
    assert [ix.label for ix in ex._term_slot_list(fs)] == ["mu0"] + [
        "mu00" if lab == "mu0" else lab for lab in labels]


@pytest.mark.parametrize("inner", ["nested-product", "times-a-number",
                                   "derivative-of-a-multiple"])
@pytest.mark.hashseed
def test_composition_renames_canonical_dummies_apart_at_any_depth(inner):
    """A canonical form's dummies are renamed apart wherever it stands in
    a product or under a derivative, not only as a factor or operand of
    its own: each composition equals the same expression written with
    distinct labels."""
    ginv, a_, s_ = ex.inv_metric, ex.em_vector, ex.weyl_vector
    raw_ss = ginv("c", "d") * s_("c") * s_("d")
    raw_aa = ginv("a", "b") * a_("a") * a_("b")
    ss, aa = ex.canonicalize(raw_ss), ex.canonicalize(raw_aa)
    got, want = {
        "nested-product": (ginv("mu0", "x") * (a_("x") * ss),
                           ginv("mu0", "x") * a_("x") * raw_ss),
        "times-a-number": (ginv("mu0", "x") * a_("x") * (2 * ss),
                           2 * ginv("mu0", "x") * a_("x") * raw_ss),
        "derivative-of-a-multiple": (ex.d("mu0", 3 * aa),
                                     ex.d("mu0", 3 * raw_aa)),
    }[inner]
    assert ex.canonicalize(got).terms
    assert ex.equal(got, want)


@pytest.mark.hashseed
def test_composition_keeps_a_label_the_caller_repeats():
    """Only the dummies of a canonical form are renamed apart: a label
    the caller writes three times around one is refused, as it is
    without the canonical form under the derivative."""
    ginv, a_, s_ = ex.inv_metric, ex.em_vector, ex.weyl_vector
    ss = ex.canonicalize(ginv("c", "d") * s_("c") * s_("d"))
    inner = ginv("n", "k") * a_("k") * a_("n")
    for e in (a_("n") * ex.d("m", inner * ss),
              a_("n") * ex.d("m", inner) * ss):
        with pytest.raises(MalformedIndex,
                           match="index 'n' appears 3 times"):
            ex.canonicalize(e)


def _connection(r, m, n, s):
    return Fraction(1, 2) * ex.inv_metric(r, s) * (
        ex.d(m, ex.metric(s, n)) + ex.d(n, ex.metric(s, m))
        - ex.d(s, ex.metric(m, n)))


@pytest.mark.hashseed
def test_composition_of_christoffel_symbols():
    """Gamma^r_rs Gamma^s_mn, the quadratic part of the Ricci tensor,
    from two canonical expansions that share the dummy mu0."""
    from weylcheck.tensor import christoffel
    got = (christoffel("r", "r", "s").expansion
           * christoffel("s", "m", "n").expansion)
    assert ex.equal(got, _connection("r", "r", "s", "x")
                    * _connection("s", "m", "n", "y"))


@pytest.mark.hashseed
def test_composition_derivative_renames_a_clashing_dummy():
    """d[mu0] of a canonical form whose dummy is mu0 differentiates it
    as if the dummy had another name."""
    phi, ginv = ex.scalar_field(), ex.inv_metric
    c = ex.canonicalize(ginv("a", "b") * ex.em_vector("b") * ex.d("a", phi))
    assert "mu0" in {ix.label for ix in ex._term_slot_list(c.terms[0].factors)}
    assert ex.equal(ex.d("mu0", c), ex.d("mu0", ginv("a", "b")
                                         * ex.em_vector("b") * ex.d("a", phi)))


@pytest.mark.parametrize("kind", list(ex.Kind) + list(ex.CliffordKind),
                         ids=lambda k: k.value)
def test_flatten_keeps_a_product_as_multiplying_out_would(kind):
    """A Product of atoms, couplings and derivatives of atoms flattens
    to the raw terms that multiplying it out gives: as it stands, unless
    a derivative vanishes on a constant or takes the chain rule on Lam."""
    slots = tuple(ex.Index(f"i{k}", alph or ex.Alphabet.SPACETIME,
                           var or ex.Variance.UP)
                  for k, (alph, var) in enumerate(kind.row.slots))
    exponent = Fraction(3) if kind == ex.Kind.LAMBDA_POWER else None
    atom = ex.FieldAtom(kind, slots, exponent)
    c = CRat(2, 1)
    for factor in (atom, ex.d("m", atom), ex.d("n", ex.d("m", atom))):
        factors = (ex.coupling("f"), factor, ex.scalar_field())
        want = [t for t in ex._distribute(c, factors) if not t[0].is_zero()]
        assert ex._flatten(Product(c, factors)) == want, factor


def test_factors_without_dummies_are_placed_in_key_order():
    """Equal factors without dummies are placed as one block, and still
    in key order: A[a] goes before the A[mu0] placed before it."""
    e = ex.em_vector("a") * ex.em_vector("m") * ex.inv_metric("m", "n") \
        * ex.weyl_vector("n")
    assert dsl.render_expr(e) == "ginv[mu0,mu1] * A[a] * A[mu0] * S[mu1]"


def test_equal_atoms_are_one_object():
    """FieldAtom and Index are hash-consed: equal ones built apart, by
    the builders, the parser, renaming, pickling or copying, are one
    object, and they hash and compare by identity, in C.  A construction
    that raises leaves the tables as they were.  Partial, the input
    node, keeps its value equality."""
    import copy
    import dataclasses
    import gc
    import pickle

    g = ex.metric("a", "b")
    ix = g.indices[0]
    assert ex.metric("a", "b") is g and ex.st_lo("a") is ix
    parsed = dsl.parse("indices spacetime a b ;\nfields g ;\nname t ;\n"
                       "density g[a,b] ;\n").parsed
    assert parsed.terms[0].factors[0] is g
    assert ex._rename_in_factor(ex.metric("b", "a"), {})[0] is g
    assert ex._rename_in_factor(ex.metric("c", "b"), {"c": "a"})[0] is g
    for node in (g, ix, ex.canonicalize(ex.d("m", g)).terms[0].factors[0]):
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.copy(node) is node and copy.deepcopy(node) is node
    assert ex.FieldAtom(kind=ex.Kind.METRIC, indices=g.indices) is g
    assert dataclasses.replace(g) is g
    assert ex.FieldAtom(ex.Kind.METRIC, g.indices, None, ()) is g
    for cls in (ex.FieldAtom, ex.Index):
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__
    assert hash(g) == object.__hash__(g) and hash(ix) == object.__hash__(ix)
    assert ex.FieldAtom(ex.Kind.LAMBDA_POWER, (), 1) is ex.lam(Fraction(1))
    assert ex.FieldAtom(ex.Kind.LAMBDA_POWER, (), 1) is ex.lam(1)

    gc.collect()
    sizes = len(ex.FieldAtom._live), len(ex.Index._live)
    with pytest.raises(MalformedIndex):
        ex.metric("a", "b", "c")
    with pytest.raises(MalformedIndex):
        ex.FieldAtom(ex.Kind.METRIC, (ix, ix, ix))
    with pytest.raises(TypeError):
        ex.FieldAtom(ex.Kind.METRIC, g.indices, nosuch=1)
    assert (len(ex.FieldAtom._live), len(ex.Index._live)) == sizes

    p, q = ex.d("m", g * g), ex.d("m", g * g)
    assert p is not q and p == q and hash(p) == hash(q)
    assert type(ex.Partial) is type


def test_atom_tables_keep_no_unreferenced_atom(monkeypatch):
    """The intern tables hold their atoms weakly.  Emptying the caches
    drops no atom that is still referenced, and 2000 atoms built,
    canonicalized and dropped leave both tables at their earlier sizes
    once the caches that held them are emptied."""
    import gc

    def empty_caches():
        with monkeypatch.context() as m:
            m.setattr(ex, "_TERM_CACHE_LIMIT", 1)
            ex._make_room()
        gc.collect()

    def sizes():
        return len(ex.FieldAtom._live), len(ex.Index._live)

    empty_caches()
    before = sizes()
    atoms = [ex.metric(f"t{k}x", f"u{k}x") for k in range(2000)]
    forms = [ex.canonicalize(a) for a in atoms]
    assert sizes() == (before[0] + 2000, before[1] + 4000)
    empty_caches()
    assert sizes() == (before[0] + 2000, before[1] + 4000)
    assert all(ex.metric(f"t{k}x", f"u{k}x") is a
               for k, a in enumerate(atoms))
    assert all(f.terms[0].factors[0] is a for f, a in zip(forms, atoms))
    del atoms, forms
    empty_caches()
    assert sizes() == before


def test_atoms_hash_and_compare_in_c():
    """Parsing, checking and covariantizing the benchmark's seed-1 draw
    of generated densities calls no Python-level __hash__ or __eq__ on a
    FieldAtom or an Index."""
    import importlib.util

    from weylcheck import gauge, scale
    from weylcheck.errors import UncoveredDerivative
    from weylcheck.report import Mode

    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    perfgen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = perfgen
    try:
        spec.loader.exec_module(perfgen)
        sources = [case["source"] for case in perfgen.draw(1)]
    finally:
        del sys.modules[spec.name]

    calls = []

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("__hash__", "__eq__") and \
                isinstance(frame.f_locals.get(code.co_varnames[0]),
                           (ex.FieldAtom, ex.Index)):
            calls.append(code.co_name)

    sys.setprofile(watch)
    try:
        for src in sources:
            L = dsl.parse(src)
            for mode in (Mode.GLOBAL, Mode.LOCAL):
                scale.check_invariance(L, mode)
            try:
                cov = gauge.gauge_covariantize(L)
            except UncoveredDerivative:
                continue
            dsl.render(dsl.make_def(L.name + "-cov", cov))
            dsl.render(L)
    finally:
        sys.setprofile(None)
    assert not calls, collections.Counter(calls)


@pytest.mark.hashseed
def test_factor_node_is_the_only_factor():
    """Every factor of a flattened or canonical term is a FieldAtom, on
    the draws of the digest seeds: a coupling is an atom of a
    CouplingKind with its power as exponent, and a derivative is the
    atom with its derivative indices.  No input node remains."""
    seen = set()
    for seed in range(300):
        t, e = gen.random_term(random.Random(seed)), gen.random_expr(seed)
        terms = ex._flatten(t) + ex._flatten(e) + [
            (u.coeff, u.factors) for s in (ex.canonicalize(t), e)
            for u in s.terms]
        for _, factors in terms:
            for f in factors:
                assert type(f) is ex.FieldAtom, (seed, f)
                seen.add(isinstance(f.kind, ex.CouplingKind))
                seen.add("derivative" if f.derivs else "atom")
    assert seen == {True, False, "derivative", "atom"}


@pytest.mark.parametrize("build, message", [
    (lambda: ex.FieldAtom(ex.Kind.SCALAR, (), None, (ex.fr_lo("a"),)),
     "derivative index must be spacetime-lower"),
    (lambda: ex.FieldAtom(ex.Kind.DELTA, ex.delta("a", "b").indices, None,
                          (ex.st_lo("m"),)),
     "delta takes no derivative indices"),
    (lambda: ex.FieldAtom(ex.Kind.LAMBDA_POWER, (), Fraction(2),
                          (ex.st_lo("m"),)),
     "Lam takes no derivative indices"),
    (lambda: ex.FieldAtom(ex.CouplingKind.F), "coupling needs an exponent"),
], ids=["derivative-index", "constant", "lam", "coupling-power"])
@pytest.mark.hashseed
def test_factor_node_checks_its_fields(build, message):
    """A derivative index is spacetime-lower, a constant or Lam takes
    none (flattening drops or rewrites its derivative), and a coupling
    carries its power."""
    with pytest.raises(MalformedIndex, match=re.escape(message)):
        build()


def test_kinds_hash_by_identity(monkeypatch):
    """A kind is a singleton and hashes in C: parsing, canonicalizing,
    rescaling and rendering generated densities with an empty term cache
    never runs the Python-level ``Enum.__hash__``."""
    from weylcheck import scale
    from weylcheck.report import Mode
    monkeypatch.setattr(ex, "_TERM_CACHE", {})
    code = enum.Enum.__hash__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_back.f_code.co_name)

    sys.setprofile(profile)
    try:
        for seed in range(5):
            doc = dsl.render(dsl.make_def("gen", gen.random_expr(seed)))
            scale.check_invariance(dsl.parse(doc), Mode.LOCAL)
            dsl.render_expr(gen.random_term(random.Random(seed)))
    finally:
        sys.setprofile(None)
    assert calls == []


@pytest.mark.parametrize("kind", list(ex.Kind), ids=lambda k: k.value)
def test_kind_table_agrees_with_its_readers(kind):
    """The slots and spin a kind's row states match the oracle's field
    jets (one axis per slot, one more for a spinor, one more per
    derivative) and the DSL's arity check.  The oracle builds delta and
    Lam itself, and the DSL does not accept delta."""
    row = kind.row
    if kind not in (ex.Kind.DELTA, ex.Kind.LAMBDA_POWER):
        a = Assignment((0, 0))
        axes = len(row.slots) + any(row.spin)
        assert a.tensor_jet(kind, 0).shape == (4,) * axes
        assert a.tensor_jet(kind, 1).shape == (4,) * (axes + 1)
    if kind != ex.Kind.DELTA:
        labels = ",".join(f"m{k}" for k in range(len(row.slots) + 1))
        with pytest.raises(IndexArityMismatch):
            dsl.parse(f"indices spacetime m0 m1 m2 m3 ;\n"
                      f"fields {kind.value} ;\nname t ;\n"
                      f"density {kind.value}[{labels}] ;")


@pytest.mark.parametrize("kind", list(ex.CliffordKind),
                         ids=lambda k: k.value)
def test_clifford_rows_agree_with_their_readers(kind):
    """A Clifford matrix's row matches the DSL's arity check, puts the
    atom in the spinor chain, gives the oracle's matrix one axis per
    slot plus two spin axes, and makes a chain of such atoms constant
    under a derivative."""
    n = len(kind.row.slots)
    labels = ",".join(f"a{k}" for k in range(n + 1))
    with pytest.raises(IndexArityMismatch):
        dsl.parse(f"indices frame a0 a1 a2 ;\nname t ;\n"
                  f"density {kind.value}[{labels}] ;")
    atom = ex.FieldAtom(kind, tuple(ex.fr_up(f"a{k}") for k in range(n)))
    (_, factors), = ex._flatten(atom)
    assert ex._split_chain(factors) == ([], [atom])
    arr, _, spin = _operand(atom)
    assert arr.shape == (4,) * (n + 2) and spin == (True, True)
    chain = Product(CRat(1), (atom, ex.gamma("b")))
    assert not ex.is_zero(chain)
    assert ex.is_zero(ex.d("m", chain))
