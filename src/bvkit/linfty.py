"""Finite-dimensional L-infinity structures and their checks.

Brackets are stored in the symmetric convention: b_n has arity n, degree
2 - n, and is graded-symmetric with respect to the shifted degrees d - 1
(symmetry_shift = 1 on the MultilinearMap).  The generalized Jacobi relation
at arity k reads

    sum_{i+j=k+1} sum_{|S|=j} eps(S) b_i(b_j(x_S), x_rest) = 0,

where S runs over j-element subsets of the arguments, the complement keeps
its order, and eps(S) is the Koszul sign of the unshuffle in shifted degrees.
No further signs appear in this convention; for a Lie algebra (b_2 only) the
relation at k = 3 is the classical Jacobiator.

The same structure is encoded as an odd vector field Q on the coordinate ring
(deg xi_a = 1 - deg a): Q(xi_c) = sum_n (1/n!) * (polynomial of the form
x -> <xi_c, b_n(x,...,x)>), and the relations hold iff Q^2 = 0.  Both routes
are implemented; they are compared in the test suite, not collapsed here.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial

from .errors import InputError, StructureError
from .formal import (Polynomial, PolynomialRing, form_to_polynomial,
                     polynomial_to_form)
from .graded import (SYM_GRADED, GradedVectorSpace, MultilinearMap,
                     koszul_sign, norm_scalar, symmetric_closure)
from .linalg import kernel_vector


class LInftyStructure:
    """A graded space with brackets {n: MultilinearMap}, n >= 1 (no curvature).

    Each bracket must have arity n, degree 2 - n, all inputs and output equal
    to `space`, and declared graded symmetry at shift 1.  Identically zero
    brackets may simply be omitted.
    """

    def __init__(self, space, brackets, validate=True):
        self.space = space
        self.brackets = {}
        for n, m in sorted(brackets.items()):
            if not isinstance(n, int) or n < 1:
                raise InputError(f"bracket arity {n!r} must be a positive integer")
            if m.is_zero() and not m.flags:
                continue
            self.brackets[n] = m
        if validate:
            for n, m in self.brackets.items():
                if m.arity != n:
                    raise InputError(f"bracket {n} has arity {m.arity}")
                if m.degree != 2 - n:
                    raise InputError(f"bracket {n} has degree {m.degree}, expected {2 - n}")
                if any(s != space for s in m.inputs) or m.output != space:
                    raise InputError(f"bracket {n} does not act on the structure space")
                if m.symmetry != SYM_GRADED or m.symmetry_shift != 1:
                    raise InputError(f"bracket {n} must be graded-symmetric at shift 1")

    @classmethod
    def from_entries(cls, space, entries, flags=None):
        """Build from generating entries {n: [(key, out, coeff), ...]}.

        Each bracket is closed under permutation with Koszul signs in shifted
        degrees.  `flags` optionally maps n to an iterable of inexact tuples.
        """
        flags = flags or {}
        brackets = {}
        for n, ents in entries.items():
            brackets[n] = symmetric_closure(
                (space,) * n, space, 2 - n, ents, shift=1,
                flags=flags.get(n, ()))
        for n, fl in flags.items():
            if n not in brackets:
                brackets[n] = symmetric_closure((space,) * n, space, 2 - n, [],
                                                shift=1, flags=fl)
        return cls(space, brackets)

    @property
    def arities(self):
        return tuple(self.brackets)

    @property
    def max_arity(self):
        return max(self.brackets, default=0)

    def bracket(self, n):
        """The arity-n bracket (a zero map if not stored)."""
        if n in self.brackets:
            return self.brackets[n]
        return MultilinearMap((self.space,) * n, self.space, 2 - n, {},
                              SYM_GRADED, 1)

    def is_flagged(self):
        return any(m.flags for m in self.brackets.values())

    def __repr__(self):
        return f"LInftyStructure(dim={self.space.dim}, arities={list(self.brackets)})"


def abelian(space):
    return LInftyStructure(space, {})


class RelationReport:
    """Outcome of the generalized Jacobi check.

    violations: list of (arity k, argument tuple, output label, residual).
    indeterminate: the (unordered) set of canonical tuples whose residual
    touches a flagged bracket coefficient and therefore cannot be decided
    inside the stored window.
    passed means: no violation among the decidable tuples.
    """

    def __init__(self, violations, indeterminate, arities_checked):
        self.violations = violations
        self.indeterminate = indeterminate
        self.arities_checked = sorted(arities_checked)
        self.passed = not violations

    def __repr__(self):
        return (f"RelationReport(passed={self.passed}, "
                f"violations={len(self.violations)}, "
                f"indeterminate={len(self.indeterminate)})")


@functools.cache
def _unshuffles(k, j, parities):
    """((S, rest, Koszul sign), ...) over the j-element subsets S of range(k).

    The sign of the unshuffle depends only on which shifted degrees are odd,
    so the plan is built once per (k, j, parity pattern) and kept.
    """
    plan = []
    for S in itertools.combinations(range(k), j):
        rest = tuple(p for p in range(k) if p not in S)
        plan.append((S, rest, koszul_sign(S + rest, parities)))
    return tuple(plan)


def _residual_on_tuple(alg, key):
    """Residual of the arity-k relation on one basis tuple.

    Returns ({output: scalar}, hit_flag).  hit_flag is True when any term
    needed a flagged coefficient; the returned dict then only collects the
    decidable part and must not be trusted.
    """
    space = alg.space
    k = len(key)
    parities = tuple((space.degree(l) - 1) % 2 for l in key)
    out = {}
    hit_flag = False
    for j in alg.arities:
        i = k - j + 1
        if i not in alg.brackets:
            continue
        bj = alg.brackets[j]
        bi = alg.brackets[i]
        for S, rest, sign in _unshuffles(k, j, parities):
            skey = tuple(key[p] for p in S)
            if skey in bj.flags:
                hit_flag = True
                continue
            inner = bj.coefficients.get(skey)
            if not inner:
                continue
            rkey = tuple(key[p] for p in rest)
            for mid, c in inner.items():
                okey = (mid,) + rkey
                if okey in bi.flags:
                    hit_flag = True
                    continue
                row = bi.coefficients.get(okey)
                if not row:
                    continue
                for o, c2 in row.items():
                    tot = out.get(o, 0) + sign * c * c2
                    if tot:
                        out[o] = tot
                    elif o in out:
                        del out[o]
    return out, hit_flag


def _candidate_tuples(alg):
    """Canonical tuples that can support a nonzero or indeterminate residual.

    The residual at a tuple T is a sum of b_i(b_j(T_S), T_rest); any nonzero
    term arises from a stored entry of b_j whose output is the first label of
    a stored entry of b_i (the brackets carry all permutations, so slot 0
    suffices).  Flagged tuples of either bracket contribute indeterminate
    candidates.
    """
    space = alg.space
    exact = set()
    maybe = set()
    by_output = {}
    # sort_labels(fkey + rest) depends only on the labels of fkey, so one
    # ordering of each flagged inner tuple covers its whole orbit
    flag_orbits = {}
    for j, bj in alg.brackets.items():
        idx = {}
        for jkey, outs in bj.coefficients.items():
            for o in outs:
                idx.setdefault(o, []).append(jkey)
        by_output[j] = idx
        flag_orbits[j] = {space.sort_labels(fkey) for fkey in bj.flags}
    for i, bi in alg.brackets.items():
        # only the tail of the outer tuple matters when slot 0 is fed by a
        # flagged inner bracket; dedupe tails before the cross product
        tails = ({space.sort_labels(ikey[1:]) for ikey in bi.coefficients}
                 | {space.sort_labels(fkey[1:]) for fkey in bi.flags})
        for j, bj in alg.brackets.items():
            idx = by_output[j]
            for ikey in bi.coefficients:
                rest = ikey[1:]
                for jkey in idx.get(ikey[0], ()):
                    exact.add(space.sort_labels(jkey + rest))
            # a flagged inner tuple has unknown outputs: it can feed any
            # stored (or flagged) outer tuple through slot 0
            for fkey in flag_orbits[j]:
                for rest in tails:
                    maybe.add(space.sort_labels(fkey + rest))
            for fkey in bi.flags:
                rest = fkey[1:]
                for jkey in idx.get(fkey[0], ()):
                    maybe.add(space.sort_labels(jkey + rest))
    return exact, maybe


def check_relations(alg):
    """Check the generalized Jacobi relations exactly; returns RelationReport.

    The residual vanishes identically outside the enumerated candidate
    tuples, so a passing report means no violation among the decidable
    tuples in every arity reachable from the stored brackets.  Tuples whose
    residual needs a flagged coefficient are not decided; they are listed in
    RelationReport.indeterminate.
    """
    exact, maybe = _candidate_tuples(alg)
    violations = []
    hits = []
    # every maybe-tuple contains a flagged sub-tuple, so its residual is
    # indeterminate without evaluation (flags are permutation-closed); each
    # has arity i + j - 1, so the walk stops once all of those are seen
    reachable = len({i + j - 1 for i in alg.brackets for j in alg.brackets})
    arities = set()
    for key in maybe:
        arities.add(len(key))
        if len(arities) == reachable:
            break
    for key in exact - maybe:
        arities.add(len(key))
        res, hit = _residual_on_tuple(alg, key)
        if hit:
            hits.append(key)
            continue
        for o, c in res.items():
            violations.append((len(key), key, o, c))
    # (arity, key, output) is unique, so this is the order by arity, key
    # and output label
    violations.sort()
    # maybe is left as it was returned: the union is a new set
    indeterminate = maybe.union(hits) if hits else maybe
    return RelationReport(violations, indeterminate, arities)


# ---------------------------------------------------------------------------
# the vector-field dictionary


def brackets_to_vf(alg):
    """Components of the odd vector field Q on the coordinate ring.

    Returns (ring, {label c: Polynomial Q(xi_c)}) with
    Q(xi_c) = sum_n (1/n!) * form_to_polynomial of the scalar form
    (x_1..x_n) -> coefficient of c in b_n(x_1..x_n).  Each component is
    homogeneous of degree deg(xi_c) + 1.  Flagged brackets are refused: the
    dictionary only makes sense for exactly known structures.
    """
    space = alg.space
    ring = PolynomialRing.functions_on(space)
    comps = {l: ring.zero() for l in space.labels}
    for n, m in alg.brackets.items():
        if m.flags:
            raise InputError("cannot form the vector field of a flagged structure")
        per_label = {}
        for key, o, c in m.entries():
            per_label.setdefault(o, {})[key] = c
        for o, form in per_label.items():
            comps[o] = comps[o] + form_to_polynomial(space, ring, form) \
                .scale(Fraction(1, factorial(n)))
    return ring, comps


def vf_to_brackets(space, components):
    """Inverse dictionary: multilinear brackets from vector-field components.

    `components` maps each label c to the polynomial Q(xi_c); the arity-n
    piece contributes n! times its symmetric form to b_n.
    """
    per_arity = {}
    for c, poly in components.items():
        for n, piece in poly.by_arity().items():
            if n < 1:
                raise InputError("vector field has a constant (curvature) term")
            form = polynomial_to_form(space, piece)
            ents = per_arity.setdefault(n, {})
            for key, v in form.items():
                v = norm_scalar(Fraction(factorial(n)) * Fraction(v))
                if v:
                    ents.setdefault(key, {})[c] = v
    brackets = {}
    for n, coeffs in per_arity.items():
        brackets[n] = MultilinearMap((space,) * n, space, 2 - n, coeffs,
                                     SYM_GRADED, 1)
    return LInftyStructure(space, brackets)


def apply_vf(ring, components, poly):
    """Apply Q = sum_a (d/dxi_a) . Q^a: left derivative, component on the
    right.  This ordering is the one under which Q^2 = 0 is equivalent to the
    plus-sign unshuffle relations of the stored brackets (the opposite order
    encodes a degree-twisted structure); it is an odd right-derivation, so
    vanishing of Q^2 on generators still implies Q^2 = 0 everywhere."""
    table = poly._derivative_table()
    out = ring.zero()
    for a, qa in components.items():
        if qa.is_zero():
            continue
        df = table.get(ring.gen_index(a))
        if df:
            out = out + Polynomial(ring, df, normalise=False) * qa
    return out


# ---------------------------------------------------------------------------
# strict morphisms


class MapReport:
    """Outcome of a strict-morphism check.

    violations: (arity, key, output, lhs, rhs) where phi(b_n(x)) != b_n(phi x).
    kernel: a nonzero kernel vector [(label, scalar), ...] when injectivity
    was requested and fails, else None.
    """

    def __init__(self, violations, kernel=None):
        self.violations = violations
        self.kernel = kernel
        self.passed = not violations and kernel is None

    def __repr__(self):
        return f"MapReport(passed={self.passed}, violations={len(self.violations)})"


def strict_map_check(phi, source, target, injective=False):
    """Check that a degree-0 linear map is a strict morphism of structures.

    phi is an arity-1 MultilinearMap from source.space to target.space; the
    condition is phi(b_n(x_1..x_n)) = b_n(phi x_1, ..., phi x_n) for every n
    appearing in either structure.
    """
    if phi.arity != 1 or phi.degree != 0:
        raise InputError("a strict morphism is a single degree-0 linear map")
    if phi.inputs[0] != source.space or phi.output != target.space:
        raise InputError("map does not connect the two structure spaces")
    # {target label: [(source label, c), ...]} in the order of phi's entries
    preimages = {}
    for (s,), outs in phi.coefficients.items():
        for t, c in outs.items():
            preimages.setdefault(t, []).append((s, c))
    violations = []
    for n in sorted(set(source.arities) | set(target.arities)):
        bs = source.bracket(n)
        bt = target.bracket(n)
        lhs = {}
        for key, o, c in bs.entries():
            for o2, c2 in phi.coefficients.get((o,), {}).items():
                row = lhs.setdefault(key, {})
                row[o2] = row.get(o2, 0) + c * c2
        rhs = {}
        for key, o, c in bt.entries():
            # pull back through phi slot by slot; phi is even, no signs
            images = [preimages.get(lab, ()) for lab in key]
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
                    violations.append((n, key, o, lrow.get(o, 0), rrow.get(o, 0)))
    kernel = None
    if injective:
        rows = {t: dict(pre) for t, pre in preimages.items()}
        for labels in source.space.components.values():
            vec = kernel_vector(rows, labels)
            if vec is not None:
                kernel = [(s, vec.get(s, 0)) for s in labels]
                break
    return MapReport(sorted(violations), kernel)


# ---------------------------------------------------------------------------
# modules and semidirect products


class LInftyModule:
    """A module structure: actions {n: MultilinearMap} with inputs
    (g, ..., g, v) (n - 1 algebra slots, one module slot), output v,
    degree 2 - n.  The axioms are exactly the generalized Jacobi relations of
    the semidirect total space, which is how `check_module` verifies them."""

    def __init__(self, algebra, space, actions, validate=True):
        self.algebra = algebra
        self.space = space
        self.actions = dict(actions)
        if validate:
            g = algebra.space
            for n, m in self.actions.items():
                if n < 1 or m.arity != n or m.degree != 2 - n:
                    raise InputError(f"action {n} violates the arity/degree rule")
                if m.inputs != (g,) * (n - 1) + (space,) or m.output != space:
                    raise InputError(f"action {n} must have signature g^{n-1} x v -> v")
            if set(g.labels) & set(space.labels):
                raise InputError("module and algebra labels must be disjoint")


def semidirect_total_space(module):
    """Assemble g (+) v with v an abelian ideal acted on by g.

    Bracket entries: the g-brackets, plus the module actions placed with the
    module argument last and closed under permutation.  Tuples with two or
    more module arguments get the zero bracket.
    """
    g = module.algebra.space
    total = g.direct_sum(module.space)
    entries = {}
    for n, m in module.algebra.brackets.items():
        entries.setdefault(n, []).extend(m.entries())
    for n, m in module.actions.items():
        entries.setdefault(n, []).extend(m.entries())
    # symmetric_closure re-derives all permutations; feeding the stored
    # (already-closed) g-bracket permutations is consistent and merges cleanly
    brackets = {}
    for n, ents in entries.items():
        brackets[n] = symmetric_closure((total,) * n, total, 2 - n, ents, shift=1)
    return LInftyStructure(total, brackets)


def check_module(module):
    """Module axioms via the semidirect construction; RelationReport."""
    return check_relations(semidirect_total_space(module))


def adjoint_module(alg, rename):
    """The adjoint action of g on a relabeled copy of itself.

    `rename` maps each label of g to a fresh label for the module copy.
    """
    g = alg.space
    vspace = GradedVectorSpace(
        {d: [rename[l] for l in labs] for d, labs in g.components.items()})
    actions = {}
    for n, m in alg.brackets.items():
        coeffs = {}
        for key, o, c in m.entries():
            nkey = key[:-1] + (rename[key[-1]],)
            coeffs.setdefault(nkey, {})[rename[o]] = c
        actions[n] = MultilinearMap((g,) * (n - 1) + (vspace,), vspace, 2 - n,
                                    coeffs)
    return LInftyModule(alg, vspace, actions)


# ---------------------------------------------------------------------------
# Artin coefficients and Maurer-Cartan elements


def tensor_bracket_sign(m_degrees, x_shifted_degrees):
    """Koszul sign for applying a bracket across a tensor factor.

    Reordering (m_1 (x) x_1) ... (m_n (x) x_n) into (m_1..m_n) (x) (x_1..x_n)
    costs (-1)^(sum_{i<j} s_{x_i} |m_j|) in shifted degrees, and carrying the
    odd bracket past the coefficient block costs (-1)^(sum |m_i|).
    """
    exp = sum(m_degrees)
    for i in range(len(m_degrees)):
        if x_shifted_degrees[i] % 2:
            exp += sum(m_degrees[i + 1:])
    return -1 if exp % 2 else 1


class ArtinCoefficients:
    """A finite-dimensional nilpotent graded-commutative dg coefficient
    algebra (no unit): basis labels with degrees, structure constants for the
    product, a differential, and a nilpotency order N with m^N = 0.

    products: {(a, b): {label: scalar}} -- missing ordered pairs are filled by
    graded commutativity, and pairs absent in both orders multiply to zero.
    """

    def __init__(self, space, products, differential=None, nilpotency=2,
                 validate=True):
        self.space = space
        self.nilpotency = nilpotency
        self.differential = {
            a: {b: norm_scalar(c) for b, c in row.items() if c != 0}
            for a, row in (differential or {}).items()}
        self.differential = {a: row for a, row in self.differential.items() if row}
        prods = {}
        for (a, b), row in products.items():
            prods[(a, b)] = {l: norm_scalar(c) for l, c in row.items() if c != 0}
        for (a, b), row in list(prods.items()):
            sign = -1 if space.degree(a) % 2 and space.degree(b) % 2 else 1
            mirror = {l: sign * c for l, c in row.items()}
            if (b, a) in prods:
                if prods[(b, a)] != mirror:
                    raise InputError(f"products at ({a},{b}) break graded commutativity")
            else:
                prods[(b, a)] = mirror
        self.products = prods
        if validate:
            self._validate()

    def _validate(self):
        sp = self.space
        for (a, b), row in self.products.items():
            d = sp.degree(a) + sp.degree(b)
            for l, _ in row.items():
                if sp.degree(l) != d:
                    raise InputError(f"product {a}*{b} -> {l} changes degree")
        for a, row in self.differential.items():
            for b in row:
                if sp.degree(b) != sp.degree(a) + 1:
                    raise InputError(f"differential {a} -> {b} is not degree 1")
        # d^2 = 0
        for a in self.differential:
            acc = {}
            for b, c in self.differential[a].items():
                for l, c2 in self.differential.get(b, {}).items():
                    acc[l] = acc.get(l, 0) + c * c2
            if any(v != 0 for v in acc.values()):
                raise StructureError(f"differential does not square to zero at {a}")
        # Leibniz on basis pairs: d(ab) = (da)b + (-1)^|a| a(db)
        for a in sp.labels:
            for b in sp.labels:
                lhs = {}
                for l, c in self.products.get((a, b), {}).items():
                    for l2, c2 in self.differential.get(l, {}).items():
                        lhs[l2] = lhs.get(l2, 0) + c * c2
                rhs = {}
                for l, c in self.differential.get(a, {}).items():
                    for l2, c2 in self.products.get((l, b), {}).items():
                        rhs[l2] = rhs.get(l2, 0) + c * c2
                s = -1 if sp.degree(a) % 2 else 1
                for l, c in self.differential.get(b, {}).items():
                    for l2, c2 in self.products.get((a, l), {}).items():
                        rhs[l2] = rhs.get(l2, 0) + s * c * c2
                if {l: c for l, c in lhs.items() if c} != \
                        {l: c for l, c in rhs.items() if c}:
                    raise StructureError(f"Leibniz fails on the pair ({a}, {b})")
        # associativity on basis triples
        for a, b, c in itertools.product(sp.labels, repeat=3):
            lhs = self.multiply(self.products.get((a, b), {}), {c: 1})
            rhs = self.multiply({a: 1}, self.products.get((b, c), {}))
            if lhs != rhs:
                raise StructureError(f"product is not associative at ({a},{b},{c})")
        # nilpotency: all products of N basis elements vanish
        for word in itertools.product(sp.labels, repeat=self.nilpotency):
            acc = {word[0]: 1}
            for l in word[1:]:
                acc = self.multiply(acc, {l: 1})
                if not acc:
                    break
            if acc:
                raise StructureError(
                    f"coefficients are not nilpotent of order {self.nilpotency}: "
                    f"{word} survives")

    def multiply(self, u, v):
        """Product of two elements given as {label: scalar}."""
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for l, c in self.products.get((a, b), {}).items():
                    tot = out.get(l, 0) + ca * cb * c
                    if tot:
                        out[l] = tot
                    elif l in out:
                        del out[l]
        return out

    def d(self, u):
        out = {}
        for a, ca in u.items():
            for b, c in self.differential.get(a, {}).items():
                tot = out.get(b, 0) + ca * c
                if tot:
                    out[b] = tot
                elif b in out:
                    del out[b]
        return out

    @classmethod
    def dual_numbers(cls):
        """The maximal ideal (eps) of k[eps]/(eps^2), eps in degree 0."""
        sp = GradedVectorSpace({0: ["eps"]})
        return cls(sp, {("eps", "eps"): {}}, nilpotency=2)


def mc_residual(alg, coeffs, alpha):
    """Maurer-Cartan residual of alpha in m (x) g.

    alpha: {(m_label, g_label): scalar}, every term of total degree 1.  The
    residual is d_m(alpha) + sum_n (1/n!) b_n^(m(x)g)(alpha, ..., alpha),
    a degree-2 element returned in the same format; alpha is flat iff it is
    empty.  Nilpotency of m makes the sum finite even beyond the stored
    bracket arities.
    """
    msp = coeffs.space
    gsp = alg.space
    terms = []
    for (ml, xl), c in alpha.items():
        c = norm_scalar(c)
        if c == 0:
            continue
        if msp.degree(ml) + gsp.degree(xl) != 1:
            raise InputError(f"alpha term ({ml}, {xl}) is not of total degree 1")
        terms.append((ml, xl, c))
    out = {}

    def add(ml, xl, c):
        tot = out.get((ml, xl), 0) + c
        if tot:
            out[(ml, xl)] = tot
        elif (ml, xl) in out:
            del out[(ml, xl)]

    for ml, xl, c in terms:
        for m2, c2 in coeffs.differential.get(ml, {}).items():
            add(m2, xl, c * c2)
    for n in alg.arities:
        bn = alg.brackets[n]
        scale = Fraction(1, factorial(n))
        for combo in itertools.product(terms, repeat=n):
            mdegs = tuple(msp.degree(t[0]) for t in combo)
            sdegs = tuple(gsp.degree(t[1]) - 1 for t in combo)
            xkey = tuple(t[1] for t in combo)
            if xkey in bn.flags:
                raise InputError(f"bracket value on {xkey} is flagged inexact")
            row = bn.coefficients.get(xkey)
            if not row:
                continue
            coeff = scale * tensor_bracket_sign(mdegs, sdegs)
            for t in combo:
                coeff *= t[2]
            mprod = {combo[0][0]: 1}
            for t in combo[1:]:
                mprod = coeffs.multiply(mprod, {t[0]: 1})
                if not mprod:
                    break
            for ml, mc in mprod.items():
                for o, c2 in row.items():
                    add(ml, o, norm_scalar(coeff * mc * c2))
    return {k: norm_scalar(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# the Chevalley-Eilenberg complex


class CeComplex:
    """Functions on the formal space of g with the differential induced by
    the brackets: d = Q as a degree-1 derivation of the coordinate ring.
    d^2 = 0 is equivalent to the generalized Jacobi relations."""

    def __init__(self, alg):
        self.algebra = alg
        self.ring, self.components = brackets_to_vf(alg)

    def d(self, poly):
        return apply_vf(self.ring, self.components, poly)

    def d_generator(self, label):
        return self.components[label]

    def monomials(self, arity):
        """Canonical monomials of the given polynomial arity (index tuples)."""
        ring = self.ring
        out = []
        for mono in itertools.combinations_with_replacement(
                range(len(ring.names)), arity):
            if any(mono[i] == mono[i - 1] and ring.parity[mono[i]]
                   for i in range(1, len(mono))):
                continue
            out.append(mono)
        return out

    def matrix(self, src_monomials, dst_monomials):
        """Matrix of d from the span of src to the span of dst (rows = dst).

        Raises StructureError if an image falls outside the destination span.
        """
        pos = {m: i for i, m in enumerate(dst_monomials)}
        cols = []
        for mono in src_monomials:
            img = self.d(Polynomial(self.ring, {mono: 1}))
            col = [0] * len(dst_monomials)
            for m, c in img.terms.items():
                if m not in pos:
                    raise StructureError(f"d({mono}) leaves the destination span at {m}")
                col[pos[m]] = c
            cols.append(col)
        return [[cols[j][i] for j in range(len(cols))]
                for i in range(len(dst_monomials))]

    def verify(self, truncation):
        """Apply d twice to every monomial of arity <= truncation.

        Returns {(arity, cohomological degree): residual polynomial} for the
        bidegrees where d^2 fails; empty iff d^2 = 0 up to the truncation.
        """
        bad = {}
        for arity in range(truncation + 1):
            for mono in self.monomials(arity):
                dd = self.d(self.d(Polynomial(self.ring, {mono: 1})))
                if not dd.is_zero():
                    key = (arity, self.ring.monomial_degree(mono))
                    bad[key] = bad.get(key, self.ring.zero()) + dd
        return {k: v for k, v in bad.items() if not v.is_zero()}


def ce_differential(alg):
    return CeComplex(alg)
