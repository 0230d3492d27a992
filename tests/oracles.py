"""Independent oracles: boundary Poisson structures of quadratic actions, the
Poisson bracket of functions one tensor entry at a time, the tensor brackets
of A (x) g over every A-tuple, the two-pass l_1 of A (x) g, dense linear
algebra with the scanning strict-morphism check, and the complement search
through one trial splitting per label (the last five at the end).

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

from bvkit.boundary import LagrangianSplitting
from bvkit.cdga import split_label, tensor_label, tensor_space
from bvkit.formal import Polynomial
from bvkit.graded import SYM_GRADED, MultilinearMap, norm_scalar
from bvkit.linalg import rank
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


# ---------------------------------------------------------------------------
# The l_1 of A (x) g in two passes: d (x) 1 + 1 (x) l_1 first, then the
# second derivation and the dz twist added to a copy of its rows.  This is
# the independent route for the one-pass l_1 of bvkit.cdga.tensor_linfty.


def two_pass_l1(model, alg, derivation=None, dz_twist=None):
    """The l_1 MultilinearMap of model (x) alg with the recipe's extra terms,
    or None when it has neither coefficients nor flags."""
    g = alg.space
    tsp = tensor_space(model, g)
    l1_coeffs = {}
    l1_flags = set()
    b1 = alg.brackets.get(1)
    for a in model.space.labels:
        da, fl = model.d({a: 1})
        for x in g.labels:
            key = (tensor_label(a, x),)
            row = l1_coeffs.setdefault(key, {})
            if fl or (b1 is not None and (x,) in b1.flags):
                l1_flags.add(key)
            for b, c in da.items():
                o = tensor_label(b, x)
                row[o] = row.get(o, 0) + c
            if b1 is not None:
                s = -1 if model.degree(a) % 2 else 1
                for y, c in b1.coefficients.get((x,), {}).items():
                    o = tensor_label(a, y)
                    row[o] = row.get(o, 0) + s * c
    l1_coeffs = {k: {o: c for o, c in row.items() if c}
                 for k, row in l1_coeffs.items()}
    coeffs = {k: row for k, row in l1_coeffs.items()
              if row and k not in l1_flags}
    flags = set(l1_flags)
    twist = {}
    if dz_twist is not None:
        b2 = alg.brackets.get(2)
        for x in g.labels:
            row = b2.coefficients.get((dz_twist, x)) if b2 else None
            if row:
                twist[x] = row

    def add(key, out, c):
        if c:
            row = coeffs.setdefault(key, {})
            row[out] = row.get(out, 0) + c
            if not row[out]:
                del row[out]

    if derivation is not None or dz_twist is not None:
        for lab in tsp.labels:
            a, x = split_label(lab)
            if derivation is not None:
                da, fl = model.derivation(derivation, {a: 1})
                if fl:
                    flags.add((lab,))
                for b, c in da.items():
                    add((lab,), tensor_label(b, x), c)
            if twist:
                adz, fl = model.product({a: 1}, {"z0w0dz": 1})
                if fl:
                    flags.add((lab,))
                s = -1 if model.degree(a) % 2 else 1
                for b, cb in adz.items():
                    for y, cy in twist.get(x, {}).items():
                        add((lab,), tensor_label(b, y), s * cb * cy)
    coeffs = {k: v for k, v in coeffs.items() if v}
    if not (coeffs or flags):
        return None
    return MultilinearMap((tsp,), tsp, 1, coeffs, SYM_GRADED, 1, flags)


# ---------------------------------------------------------------------------
# Dense Gaussian elimination on lists of rows, and the strict-morphism check
# that scans the whole map for the preimages of every label: the independent
# routes for the sparse kernel of bvkit.linalg and for the preimage index of
# bvkit.linfty.strict_map_check.


def _echelon(matrix):
    """Row-reduce a copy; returns (echelon rows, pivot column list)."""
    rows = [list(map(Fraction, r)) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def dense_rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    return len(_echelon(matrix)[1])


def dense_kernel_vector(matrix):
    """A nonzero kernel vector of the matrix (as a column-space map), or None."""
    if not matrix:
        return None
    ncols = len(matrix[0])
    rows, pivots = _echelon(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    c = free[0]
    vec = [Fraction(0)] * ncols
    vec[c] = Fraction(1)
    for i, p in enumerate(pivots):
        vec[p] = -rows[i][c]
    return [norm_scalar(v) for v in vec]


def dense_invert(matrix):
    """Inverse of a square matrix, or None if singular."""
    n = len(matrix)
    if n == 0:
        return []
    if any(len(r) != n for r in matrix):
        return None
    aug = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(matrix)]
    rows, pivots = _echelon(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [[norm_scalar(x) for x in row[n:]] for row in rows[:n]]


def scan_strict_map_check(phi, source, target, injective=False):
    """(violations, kernel) of phi as a strict morphism, finding the
    preimages of each label by a scan of every entry of phi."""
    violations = []
    for n in sorted(set(source.arities) | set(target.arities)):
        lhs = {}
        for key, o, c in source.bracket(n).entries():
            for o2, c2 in phi.coefficients.get((o,), {}).items():
                row = lhs.setdefault(key, {})
                row[o2] = row.get(o2, 0) + c * c2
        rhs = {}
        for key, o, c in target.bracket(n).entries():
            images = [[(skey[0], c2)
                       for skey, outs in phi.coefficients.items()
                       for o2, c2 in outs.items() if o2 == lab]
                      for lab in key]
            for choice in itertools.product(*images):
                skey = tuple(s for s, _ in choice)
                cc = c
                for _, c2 in choice:
                    cc *= c2
                row = rhs.setdefault(skey, {})
                row[o] = row.get(o, 0) + cc
        for key in set(lhs) | set(rhs):
            lrow = {o: c for o, c in lhs.get(key, {}).items() if c}
            rrow = {o: c for o, c in rhs.get(key, {}).items() if c}
            for o in set(lrow) | set(rrow):
                if lrow.get(o, 0) != rrow.get(o, 0):
                    violations.append(
                        (n, key, o, lrow.get(o, 0), rrow.get(o, 0)))
    kernel = None
    if injective:
        for d, labels in source.space.components.items():
            rows = [[phi.coefficients.get((s,), {}).get(t, 0)
                     for s in labels] for t in target.space.labels]
            vec = dense_kernel_vector(rows)
            if vec is not None:
                kernel = list(zip(labels, vec))
                break
    return sorted(violations), kernel


# ---------------------------------------------------------------------------
# The greedy complement search through one trial LagrangianSplitting per
# candidate label: the independent route for the growing pairing block of
# bvkit.boundary.suggest_complement.


def trial_splitting_complement(alg, omega, plus):
    """A greedy isotropic complement to `plus`, or None, with the rank of a
    whole trial splitting's pairing matrix deciding each label."""
    plus = tuple(plus)
    taken = set(plus)
    chosen = []
    for m in alg.space.labels:
        if m in taken or omega.pairing(m, m) \
                or any(omega.pairing(m, m2) for m2 in chosen):
            continue
        trial = LagrangianSplitting(alg, omega, plus, chosen + [m])
        if rank(trial.pairing_matrix(), trial.minus) == len(chosen) + 1:
            chosen.append(m)
    if len(chosen) != len(plus):
        return None
    return tuple(chosen)
