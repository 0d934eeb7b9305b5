"""Canonical forms pinned by digest.

Each entry renders one engine's output on a fixed family of generated
inputs and hashes the rendered texts, error texts included.  A change
that keeps every canonical form keeps every digest; a change that moves
one term of one output changes its digest.  The digests must also not
depend on string hashing, so the whole file is marked ``hashseed``: CI
runs the tests with that mark under two values of PYTHONHASHSEED.

Print the current digests with ``PYTHONPATH=src python
tests/test_digests.py``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import strategies as gen

from weylcheck import clifford, dsl, gauge, scale, tensor
from weylcheck import exprs as ex
from weylcheck.report import Mode
from weylcheck.simplify import full_simplify

pytestmark = pytest.mark.hashseed

SEEDS = range(300)

_EXPR_ENGINES = {
    "canonicalize": ex.canonicalize,
    "apply_global_scale": scale.apply_global_scale,
    "apply_local_scale": scale.apply_local_scale,
    "gauge_covariantize": gauge.gauge_covariantize,
    "contract_pairs": tensor.contract_pairs,
    "gamma_canonicalize": clifford.gamma_canonicalize,
    "expand_sigma": clifford.expand_sigma,
    "full_simplify": full_simplify,
}

_TERM_ENGINES = {
    "term/canonicalize": ex.canonicalize,
    "term/full_simplify": full_simplify,
}

# recorded at the commit that introduced this file
EXPECTED = {
    "canonicalize": "5ca86e7dd36047bf631ba01947f880a82395bdd6f8fb9d9bfbed8a22f956a935",
    "apply_global_scale": "bcdfb95cb287624307b9eb87c3317c68b7a1a66f6112c14694143489f07cba5d",
    "apply_local_scale": "7de7f7101ffabfdbe00d6ddbae95c27c2ae4efd10073e1551c80af28b8b96fed",
    "gauge_covariantize": "9d30dc0c5c03983ee8ee8608a5c911a1847bf4f74edc0f3dc96bf72077fdeefe",
    "contract_pairs": "f29ba53f0cfbf9424117b10ad5677cabbbdf69a5bc990bb4ee385418f9b346e2",
    "gamma_canonicalize": "86e5621bcb369fca62d02a527ec612afa92c19d02b42b78e9c42a8463a927d22",
    "expand_sigma": "e729d0e7cec0aac56889bda9d897b567be95a79a28e1175d316bfbbee883b75e",
    "full_simplify": "edbc1dccae0b9e4ad5860cf004c8001e2c6ab5fb995d7d707ba78c2fcc6cbe3f",
    "render": "e52f99140e8b6eee60c3c9bebe2876f9a6da92e1af90bf61da27ae643c94a53f",
    "check_invariance/local": "49ca483c1954dc6776cd4823a68cc4359c9ff3e4177b575089cfd2d3f453637d",
    "term/canonicalize": "50c7fefcb9381c37a2f243191fa059051b8cf9a04bd32b6e7e7909370d4941bc",
    "term/full_simplify": "9ff11553b422aaf3a88c526181d9046fd93ac93c40c80f8b2329430d32a6ddf8",
}


def _text(fn, arg) -> str:
    try:
        return fn(arg)
    except Exception as err:  # the error text is part of the output
        return f"{type(err).__name__}: {err}"


def digests(names=tuple(EXPECTED), cold_cache=False) -> dict[str, str]:
    """Digests of the outputs ``names``; with ``cold_cache`` the term
    cache is emptied before every seed."""
    outputs: dict[str, list[str]] = {name: [] for name in names}

    def record(name, fn, arg):
        if name in outputs:
            outputs[name].append(_text(fn, arg))

    for seed in SEEDS:
        if cold_cache:
            ex._TERM_CACHE.clear()
        e = gen.random_expr(seed)
        for name, fn in _EXPR_ENGINES.items():
            record(name, lambda x: dsl.render_expr(fn(x)), e)
        record("render",
               lambda x: dsl.render(dsl.make_def(f"gen{seed}", x)), e)
        record("check_invariance/local",
               lambda x: scale.check_invariance(x, Mode.LOCAL).to_json(), e)
        t = gen.random_term(random.Random(seed))
        for name, fn in _TERM_ENGINES.items():
            record(name, lambda x: dsl.render_expr(fn(x)), t)
    return {name: hashlib.sha256("\n".join(texts).encode()).hexdigest()
            for name, texts in outputs.items()}


def test_canonical_forms_unchanged():
    got = digests()
    changed = sorted(name for name in EXPECTED if got[name] != EXPECTED[name])
    assert not changed, f"outputs changed: {changed}"


def test_canonical_forms_do_not_depend_on_cache_history():
    """The term cache remembers searches by skeleton; with it emptied
    before every seed, the forms are those pinned above."""
    names = ("canonicalize", "apply_global_scale", "check_invariance/local")
    got = digests(names, cold_cache=True)
    assert got == {name: EXPECTED[name] for name in names}


def test_canonical_forms_survive_emptying_the_full_caches(monkeypatch):
    """With a cache limit of 7 the term cache and the memos are emptied
    over and over mid-run.  The forms are still those pinned above, and
    afterwards no cache holds more than 8 entries."""
    monkeypatch.setattr(ex, "_TERM_CACHE_LIMIT", 7)
    for cache in ex._MEMOS + [ex._TERM_CACHE]:
        cache.clear()
    names = ("canonicalize", "apply_global_scale", "check_invariance/local")
    assert digests(names) == {name: EXPECTED[name] for name in names}
    assert all(len(cache) <= 8 for cache in ex._MEMOS + [ex._TERM_CACHE])


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"    \"{name}\": \"{digest}\",")
