"""The plain records of the public API: immutable named tuples that keep
the equality, hash, defaults, copies, pickling and repr they had as
frozen dataclasses; and parsed densities, which pickle and deep-copy."""

import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from weylcheck import densities
from weylcheck.dsl import LagrangianDef, parse
from weylcheck.exprs import Kind, Sum, canonicalize, scalar_field
from weylcheck.oracle import TOL_FIELD, TOL_PURE, OracleCheck
from weylcheck.report import OracleSummary, TraceStep
from weylcheck.scale import Mode, WeylWeight, check_invariance
from weylcheck.tensor import ChristoffelExpr

EMPTY = Sum(())

# each record with its fields, the same record with one field changed,
# and its repr
RECORDS = [
    (TraceStep("r", "b", "a"), TraceStep("r", "b", "c"),
     "TraceStep(rule='r', before='b', after='a')"),
    (OracleSummary(100, 1e-12, 1), OracleSummary(100, 1e-12, 2),
     "OracleSummary(trials=100, maxdev=1e-12, seed=1)"),
    (WeylWeight(Fraction(-4), False), WeylWeight(Fraction(-4)),
     "WeylWeight(value=Fraction(-4, 1), homogeneous=False)"),
    (ChristoffelExpr(EMPTY), ChristoffelExpr(canonicalize(scalar_field())),
     "ChristoffelExpr(expansion=Sum(terms=()))"),
    (LagrangianDef("t", EMPTY, (Kind.SCALAR,)), LagrangianDef("t", EMPTY, ()),
     "LagrangianDef(name='t', parsed=Sum(terms=()), "
     "declared=(<Kind.SCALAR: 'phi'>,))"),
    (OracleCheck("n", len, True), OracleCheck("n", len),
     "OracleCheck(name='n', fn=<built-in function len>, pure=True)"),
]


@pytest.mark.parametrize("record, other, text", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_keeps_its_value_semantics(record, other, text):
    fields = tuple(record)
    same = type(record)(*fields)
    assert same == record and hash(same) == hash(record)
    assert other != record
    assert repr(record) == text
    for clone in (copy.copy, copy.deepcopy,
                  lambda r: pickle.loads(pickle.dumps(r))):
        c = clone(record)
        assert type(c) is type(record) and c == record, clone
    # a named tuple compares equal to the plain tuple of its fields and
    # takes `_replace` in place of `dataclasses.replace`
    assert fields == record
    assert record._replace() == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_record_defaults_and_methods():
    assert OracleSummary() == OracleSummary(trials=0, maxdev=None, seed=None)
    assert WeylWeight(Fraction(2)).homogeneous is True
    assert OracleCheck("n", len).pure is False
    assert OracleCheck("n", len).tolerance == TOL_FIELD
    assert OracleCheck("n", len, True).tolerance == TOL_PURE
    assert LagrangianDef("t", EMPTY, ()).free_indices() == frozenset()


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


@pytest.mark.parametrize("name", [*densities.BUILTIN_NAMES, "weyl-meson.wl"])
def test_densities_survive_pickle_and_deepcopy(name):
    """A parsed density, coefficients included, pickles and deep-copies
    to an equal one that keeps its canonical mark and gets the same local
    residual."""
    if name in densities.BUILTIN_NAMES:
        L = densities.builtin(name)
    else:
        L = parse((Path(__file__).resolve().parent.parent / "examples"
                   / name).read_text())
    want = check_invariance(L, Mode.LOCAL).residual
    for clone in (_pickled, copy.deepcopy):
        c = clone(L)
        assert c == L and c.parsed._canonical, clone
        assert check_invariance(c, Mode.LOCAL).residual == want, clone


@pytest.mark.parametrize("name", densities.BUILTIN_NAMES)
def test_unread_reports_survive_pickle_and_deepcopy(name):
    """A check's report, local or global, pickles and deep-copies before
    its texts are first read: the copy equals the report and gives the
    same JSON."""
    L = densities.builtin(name)
    for mode in (Mode.LOCAL, Mode.GLOBAL):
        for clone in (_pickled, copy.deepcopy):
            c = clone(check_invariance(L, mode))
            r = check_invariance(L, mode)
            assert c == r and c.to_json() == r.to_json(), (mode, clone)
