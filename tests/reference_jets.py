"""Monomial-by-monomial reference for the oracle's field jets.

This is the polynomial evaluator ``oracle.Assignment`` used before it
computed jets in closed form: each field is a dict of degree <= 2
monomials in the four coordinates, differentiated monomial by monomial
and evaluated by repeated multiplication.  ``reference_fields`` replays
the documented sampling order on a fresh generator, so tests can compare
every field's value, gradient and Hessian with ``Assignment.tensor_jet``
and check that the closed form draws the same random stream.
``inverse_jet`` is the einsum form of the inverse-matrix jet that
``oracle._inverse_jet`` now computes with broadcast matmuls.
"""

from __future__ import annotations

import numpy as np

from weylcheck import oracle
from weylcheck.exprs import Kind

# degree <= 2 monomial exponents in 4 coordinates
_MONOS = [(0, 0, 0, 0)]
_MONOS += [tuple(1 if k == i else 0 for k in range(4)) for i in range(4)]
_MONOS += [tuple((1 if k == i else 0) + (1 if k == j else 0)
                 for k in range(4))
           for i in range(4) for j in range(i, 4)]


class Poly4:
    """Exact polynomial in four coordinates, complex coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict):
        self.c = {e: v for e, v in coeffs.items() if v != 0}

    @staticmethod
    def sample(rng, complex_=False) -> "Poly4":
        vals = rng.uniform(-1.0, 1.0, len(_MONOS))
        if complex_:
            vals = vals + 1j * rng.uniform(-1.0, 1.0, len(_MONOS))
        return Poly4(dict(zip(_MONOS, vals)))

    def diff(self, i: int) -> "Poly4":
        out = {}
        for e, v in self.c.items():
            if e[i]:
                e2 = tuple(n - 1 if k == i else n for k, n in enumerate(e))
                out[e2] = out.get(e2, 0) + v * e[i]
        return Poly4(out)

    def __call__(self, x) -> complex:
        total = 0.0
        for e, v in self.c.items():
            m = v
            for k in range(4):
                for _ in range(e[k]):
                    m = m * x[k]
            total += m
        return total


def _jet(p: Poly4, x):
    """Value, gradient, and Hessian of a polynomial at a point."""
    v = p(x)
    d1 = np.array([p.diff(i)(x) for i in range(4)])
    d2 = np.array([[p.diff(i).diff(j)(x) for j in range(4)]
                   for i in range(4)])
    return v, d1, d2


def _jet_array(ps, x, shape):
    """Jets of a nested list of polynomials; derivative axes first."""
    flat = list(np.reshape(np.array(ps, dtype=object), -1))
    vals, d1s, d2s = [], [], []
    for p in flat:
        v, d1, d2 = _jet(p, x)
        vals.append(v)
        d1s.append(d1)
        d2s.append(d2)
    v = np.array(vals).reshape(shape)
    d1 = np.moveaxis(np.array(d1s).reshape(shape + (4,)), -1, 0)
    d2 = np.array(d2s).reshape(shape + (4, 4))
    d2 = np.moveaxis(d2, (-2, -1), (0, 1))
    return v, d1, d2


def reference_fields(key):
    """(x, {kind: (value, gradient, Hessian)}, resamples) for a seed.

    Draws in the order of the ``Assignment`` docstring: point, tetrad
    (resampled until well conditioned), phi, A, W, S, ell, Psi, Psibar.
    ``LOG_DERIV`` holds ell's jet; ``Assignment`` keeps its gradient and
    Hessian as the first two orders of ``D``.
    """
    rng = np.random.default_rng(tuple(int(k) for k in key))
    x = rng.uniform(-1.0, 1.0, 4)
    for resamples in range(oracle._MAX_RESAMPLE):
        eps_p = [[Poly4.sample(rng) for _ in range(4)] for _ in range(4)]
        e0 = np.array([[eps_p[a][m](x).real for m in range(4)]
                       for a in range(4)])
        if abs(np.linalg.det(e0)) > 0.1 and np.linalg.cond(
                e0.T @ oracle._ETA @ e0) < oracle._COND_CAP:
            break
    else:
        raise AssertionError(f"no well-conditioned tetrad for {key}")
    phi_p = Poly4.sample(rng)
    a_p = [Poly4.sample(rng) for _ in range(4)]
    w_p = [[Poly4.sample(rng) for _ in range(4)] for _ in range(4)]
    s_p = [Poly4.sample(rng) for _ in range(4)]
    ell_p = Poly4.sample(rng)
    psi_p = [Poly4.sample(rng, complex_=True) for _ in range(4)]
    psibar_p = [Poly4.sample(rng, complex_=True) for _ in range(4)]
    fields = {
        Kind.TETRAD: _jet_array(eps_p, x, (4, 4)),
        Kind.SCALAR: _jet(phi_p, x),
        Kind.EM_VECTOR: _jet_array(a_p, x, (4,)),
        Kind.YM_VECTOR: _jet_array(w_p, x, (4, 4)),
        Kind.WEYL_VECTOR: _jet_array(s_p, x, (4,)),
        Kind.LOG_DERIV: _jet(ell_p, x),
        Kind.FERMION: _jet_array(psi_p, x, (4,)),
        Kind.FERMION_BAR: _jet_array(psibar_p, x, (4,)),
    }
    return x, fields, resamples


def inverse_jet(m, dm, ddm):
    """Value, gradient and Hessian of inv(m) from those of a matrix m,
    as explicit einsum contractions."""
    inv = np.linalg.inv(m)
    d = -np.einsum("ma,kab,bn->kmn", inv, dm, inv)
    dd = (-np.einsum("ma,ksab,bn->ksmn", inv, ddm, inv)
          + np.einsum("ma,kab,bc,scd,dn->ksmn", inv, dm, inv, dm, inv)
          + np.einsum("ma,sab,bc,kcd,dn->ksmn", inv, dm, inv, dm, inv))
    return inv, d, dd
