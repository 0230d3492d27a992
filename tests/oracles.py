"""Independent oracles: boundary Poisson structures of quadratic actions, the
Poisson bracket of functions one tensor entry at a time, and the tensor
brackets of A (x) g over every A-tuple (the last two at the end).

For a splitting l = l_+ (+) l_- of an ambient structure with at most binary
brackets, the boundary bivector must reproduce the current-algebra formula
built from ambient data alone (omega, l_1, l_2): writing u_p in l_- for the
omega-dual of the base coordinate p (normalized omega(u_p, q) = delta_pq),

    {xi_p, xi_q} = -(-1)^{|u_p||u_q|} sum_r omega(l_2(u_p, u_q), r) xi_r
                   -(-1)^{|u_p|}     omega(u_p, l_1 u_q)

where {,} is the derived bracket of the returned Pi-bar.  The constant term
is the cocycle of the l_+-valued part of l_1, the linear term the bracket of
currents.  The two Koszul signs are fixed conventions of the polynomial
encoding, pinned here after verifying the unsigned support on four model
families; they cannot repair a wrong structure constant.
"""
import itertools
from fractions import Fraction

from bvkit.cdga import tensor_label
from bvkit.formal import Polynomial
from bvkit.linfty import tensor_bracket_sign


def _by_conjugate(terms, fiber_index):
    """Bucket the terms of a polynomial by which plus-fiber indices appear.

    Bracketing with the linear base generator xi_q differentiates along the
    conjugate fiber variable only, so terms without that index contribute
    zero; restricting first is exact and avoids walking the full polynomial
    once per generator."""
    buckets = {}
    for mono, c in terms.items():
        for i in set(mono):
            q = fiber_index.get(i)
            if q is not None:
                buckets.setdefault(q, {})[mono] = c
    return buckets


def current_algebra_mismatches(alg, omega, plus, minus, pbar):
    """All (p, q, got, want) tuples where the derived bracket disagrees with
    the formula above; empty iff the boundary bivector is the expected one."""
    model = pbar.model
    ring = model.ring
    Pi = pbar.function()
    sp = alg.space
    b2 = alg.brackets.get(2)
    b1 = alg.brackets.get(1)

    def l2c(x, y):
        return b2.coefficients.get((x, y), {}) if b2 else {}

    def l1c(x):
        return b1.coefficients.get((x,), {}) if b1 else {}

    duals = {}
    for p in plus:
        for m in minus:
            c = omega.pairing(m, p)
            if c:
                duals[p] = (m, Fraction(1) / c)
                break
        else:
            raise AssertionError(f"{p} pairs with nothing in l_-")
    # omega against the base coordinates, indexed by ambient output label
    to_plus = {}
    for o in sp.labels:
        row = [(r, omega.pairing(o, r)) for r in plus if omega.pairing(o, r)]
        if row:
            to_plus[o] = row

    bad = []
    fiber_index = {ring.gen_index(model.fibers[p]): p for p in plus}
    pi_buckets = _by_conjugate(Pi.terms, fiber_index)
    outer, inner = {}, {}
    for p in plus:
        part = Polynomial(ring, pi_buckets.get(p, {}), normalise=False)
        outer[p] = model.bracket(part, ring.generator(p))
        inner[p] = _by_conjugate(outer[p].terms, fiber_index)
    for p in plus:
        for q in plus:
            (up, cu), (uq, cq) = duals[p], duals[q]
            s2 = -1 if (sp.degree(up) * sp.degree(uq)) % 2 else 1
            s1 = -1 if sp.degree(up) % 2 else 1
            terms = {}
            for o, c in l2c(up, uq).items():
                for r, w in to_plus.get(o, ()):
                    k = (ring.gen_index(r),)
                    terms[k] = terms.get(k, 0) - s2 * cu * cq * c * w
            cen = sum((c * omega.pairing(up, o)
                       for o, c in l1c(uq).items()), Fraction(0))
            if cen:
                terms[()] = terms.get((), 0) - s1 * cu * cq * cen
            terms = {k: v for k, v in terms.items() if v}
            part = Polynomial(ring, inner[p].get(q, {}), normalise=False)
            got = model.bracket(part, ring.generator(q)).terms
            if got != terms:
                bad.append((p, q, dict(got), terms))
    return bad


# ---------------------------------------------------------------------------
# The Poisson bracket one tensor entry at a time, differentiating one
# generator at a time: the independent route for the derivative-table kernel
# of bvkit.symplectic.


def _derivative(poly, j, crossed):
    """d/dxi_j, monomial by monomial; `crossed(mono, p)` is the part of the
    monomial an odd xi_j at position p moves past."""
    ring = poly.ring
    out = {}
    for mono, c in poly.terms.items():
        for p, idx in enumerate(mono):
            if idx != j:
                continue
            odd = sum(ring.parity[q] for q in crossed(mono, p))
            sign = -1 if ring.parity[j] and odd % 2 else 1
            rest = mono[:p] + mono[p + 1:]
            out[rest] = out.get(rest, 0) + sign * c
    return Polynomial(ring, out)


def left_derivative(poly, j):
    return _derivative(poly, j, lambda mono, p: mono[:p])


def right_derivative(poly, j):
    return _derivative(poly, j, lambda mono, p: mono[p + 1:])


def graded_poisson(f, g, tensor):
    """sum over tensor entries (i, c) of b * dr/dxi_c(g) * dl/dxi_i(f), the
    g-factor multiplied first, one entry at a time."""
    out = f.ring.zero()
    for (i, c), b in tensor.items():
        out = out + (right_derivative(g, c) * left_derivative(f, i)).scale(b)
    return out


# ---------------------------------------------------------------------------
# The tensor brackets over every A-tuple, each product recomputed left to
# right: the independent route for the prefix table of bvkit.cdga.


def dense_tensor_brackets(model, alg):
    """{n: (coefficients, flags)} of l_n on A (x) g for n >= 2, looping over
    every stored g key and every n-tuple of model labels."""
    g = alg.space
    out = {}
    for n, m in alg.brackets.items():
        if n == 1:
            continue
        coeffs = {}
        nflags = set()
        for gkey, row in m.coefficients.items():
            xdegs = [g.degree(x) - 1 for x in gkey]
            for akey in itertools.product(model.space.labels, repeat=n):
                prod = model.one()
                fl = False
                for a in akey:
                    prod, f = model.product(prod, {a: 1})
                    fl = fl or f
                tkey = tuple(tensor_label(a, x) for a, x in zip(akey, gkey))
                if fl:
                    nflags.add(tkey)
                    continue
                if not prod:
                    continue
                s = tensor_bracket_sign(
                    [model.degree(a) for a in akey], xdegs)
                trow = coeffs.setdefault(tkey, {})
                for b, cb in prod.items():
                    for y, cy in row.items():
                        o = tensor_label(b, y)
                        v = trow.get(o, 0) + s * cb * cy
                        if v:
                            trow[o] = v
                        elif o in trow:
                            del trow[o]
        coeffs = {k: row for k, row in coeffs.items()
                  if row and k not in nflags}
        if coeffs or nflags:
            out[n] = (coeffs, nflags)
    return out
