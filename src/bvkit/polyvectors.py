"""Polyvector fields, the Schouten bracket, and homotopy Poisson structures.

A polyvector field of arity j on a finite graded space l is stored as a
polynomial on the shifted cotangent total space l + l*[n-2] that is
homogeneous of degree j in the fiber coordinates: base coordinates xi_a have
degree 1 - deg(a), fiber coordinates p_a have degree n - 1 + deg(a), so this
ring is Sym(l*[-1]) tensor Sym(l[1-n]).  Under this identification the
Schouten bracket IS the constant Poisson bracket of the canonical shift-n
pairing omega_can(a, a*) = 1, which has cohomological degree -n; restricted
to fiber-linear functions (j = 1) it is the commutator of vector fields.

A homotopy Poisson structure of cotangent shift n is a family {Pi_j}_(j>=2)
of polyvector fields of arity j and total degree n + 1 such that
Q + sum_j Pi_j squares to zero under the Schouten bracket, where Q is the
fiber-linear function encoding the L-infinity structure of the base.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InputError
from .formal import Polynomial, PolynomialRing, polynomial_to_form
from .graded import GradedVectorSpace
from .linfty import brackets_to_vf
from .symplectic import (ShiftedSymplecticStructure, graded_poisson,
                         hamiltonian_components, poisson_tensor)


FIBER_SUFFIX = "*"


class CotangentModel:
    """The shifted cotangent total space of l with its canonical pairing.

    Fiber labels are base labels with a '*' suffix; deg(a*) = 2 - n - deg(a),
    so that omega_can(a, a*) = 1 is a shift-n pairing.  The coordinate ring,
    the pairing, and its inverse tensor are shared by every polyvector on
    the same base.
    """

    def __init__(self, space, shift):
        self.base = space
        self.shift = shift
        fibers = {}
        for lab in space.labels:
            flab = lab + FIBER_SUFFIX
            if flab in space:
                raise InputError(
                    f"label {flab!r} collides with the fiber coordinate of "
                    f"{lab!r}")
            fibers[lab] = flab
        fcomps = {}
        for lab in space.labels:
            d = 2 - shift - space.degree(lab)
            fcomps.setdefault(d, []).append(fibers[lab])
        self.fiber_space = GradedVectorSpace(fcomps)
        self.total = space.direct_sum(self.fiber_space)
        self.fibers = fibers
        self.ring = PolynomialRing.functions_on(self.total)
        self.omega = ShiftedSymplecticStructure(
            self.total, shift, {(l, fibers[l]): 1 for l in space.labels})
        self.tensor = poisson_tensor(self.omega, self.ring)
        self._fiber_idx = frozenset(
            self.ring.gen_index(f) for f in fibers.values())

    def is_fiber(self, gen_index):
        return gen_index in self._fiber_idx

    def fiber_count(self, mono):
        return sum(1 for i in mono if i in self._fiber_idx)

    def bracket(self, f, g):
        """Constant Poisson bracket of the canonical pairing (degree -n)."""
        return graded_poisson(f, g, self.tensor)

    def lift(self, poly):
        """A polynomial on the base coordinates viewed in the total ring."""
        return poly.substitute(self.ring, {})

    def __eq__(self, other):
        return (isinstance(other, CotangentModel)
                and self.base == other.base and self.shift == other.shift)

    def __repr__(self):
        return f"CotangentModel(dim={self.base.dim}, shift={self.shift})"


class PolyvectorField:
    """A polyvector field: polynomial homogeneous in fiber arity j.

    The polynomial arity k (number of base coordinates per monomial) may vary
    between monomials; `bidegrees` lists the (k, j) pairs present.  as_form /
    as_map expose the equivalent multilinear presentations.
    """

    def __init__(self, model, poly):
        if poly.ring != model.ring:
            raise InputError("polyvector polynomial must live in the "
                             "cotangent coordinate ring of its model")
        self.model = model
        self.poly = poly
        js = {model.fiber_count(m) for m in poly.terms}
        if len(js) > 1:
            raise InputError(f"mixed polyvector arities {sorted(js)}; split "
                             "the polynomial with polyvector_from_function")
        self.j = js.pop() if js else 0
        self.bidegrees = sorted({(len(m) - self.j, self.j)
                                 for m in poly.terms})

    def is_zero(self):
        return self.poly.is_zero()

    def degrees(self):
        return self.poly.cohomological_degrees()

    def as_form(self):
        """The symmetric multilinear scalar form of the polynomial, on the
        cotangent total space (stored on all permutations)."""
        return polynomial_to_form(self.model.total, self.poly)

    def as_map(self):
        """The multilinear presentation: {input label tuple -> {base output
        label: scalar}}, obtained by raising the last fiber index of the
        symmetric form through the canonical pairing.  Inputs are k base
        labels followed by j - 1 fiber labels (the canonical ordering of each
        orbit); requires j >= 1.  Normalized so that the structure polyvector
        of an L-infinity algebra reproduces its bracket coefficients:
        form value * (arity)! undoes the 1/n! of the vector-field dictionary
        and the symmetrization of polynomial_to_form."""
        if self.j < 1:
            raise InputError("an arity-0 polyvector has no map presentation")
        model = self.model
        form = self.as_form()
        inv = model.omega.inverse()
        fib = set(model.fibers.values())
        coeffs = {}
        for key, c in form.items():
            last = key[-1]
            if last not in fib:
                continue
            head = key[:-1]
            if head != model.total.sort_labels(head):
                continue  # one canonical representative per orbit
            scale = factorial(len(key))
            for (yy, o), w in inv.items():
                if yy != last:
                    continue
                row = coeffs.setdefault(head, {})
                v = row.get(o, 0) + c * w * scale
                if v:
                    row[o] = v
                elif o in row:
                    del row[o]
        return {k: r for k, r in coeffs.items() if r}

    def __add__(self, other):
        if self.model != other.model:
            raise InputError("polyvectors live on different models")
        return PolyvectorField(self.model, self.poly + other.poly)

    def scale(self, c):
        return PolyvectorField(self.model, self.poly.scale(c))

    def __repr__(self):
        return (f"PolyvectorField(j={self.j}, bidegrees={self.bidegrees}, "
                f"nnz={len(self.poly.terms)})")


def schouten(p, r):
    """Schouten bracket of polyvector fields: the canonical-pairing Poisson
    bracket of their defining functions.  Arity j_p + j_r - 1, degree
    |p| + |r| - n."""
    if p.model != r.model:
        raise InputError("Schouten bracket of polyvectors on different models")
    return PolyvectorField(p.model, p.model.bracket(p.poly, r.poly))


def vector_field(model, components):
    """The arity-1 polyvector of a vector field given by components
    {base label: Polynomial in the base coordinates}: the unique fiber-linear
    function F with {F, xi_c} = X^c for every base coordinate."""
    ring = model.ring
    inv = model.omega.inverse()
    terms = {}
    for c, comp in components.items():
        if comp.is_zero():
            continue
        pc = model.fibers[c]
        # dl/dp_c (w * p_c * X^c) * inv[(p_c, c)] = X^c since inv entries
        # square to 1 for the canonical pairing
        w = inv[(pc, c)]
        lifted = comp if comp.ring == ring else model.lift(comp)
        i = ring.gen_index(pc)
        for mono, v in lifted.terms.items():
            terms[(i,) + mono] = w * v
    # the words p_c * mono are distinct; normalising sorts them with their
    # Koszul signs
    return PolyvectorField(model, Polynomial(ring, terms))


def vf_components(p):
    """Inverse of vector_field: {base label: Polynomial} with
    X^c = {F, xi_c}; the polyvector must have arity 1 and no base-coordinate
    output outside the base (always true for fields built on the model)."""
    if p.is_zero():
        return {}
    if p.j != 1:
        raise InputError("vf_components needs an arity-1 polyvector")
    model = p.model
    return hamiltonian_components(p.poly, model.tensor, model.base.labels)


def structure_polyvector(alg, shift):
    """Q as an arity-1 polyvector on the shift-n cotangent model: the
    fiber-linear function whose Hamiltonian components are the vector field
    of the L-infinity structure."""
    model = CotangentModel(alg.space, shift)
    ring, comps = brackets_to_vf(alg)
    lifted = {c: q.substitute(model.ring, {}) for c, q in comps.items()}
    return vector_field(model, lifted)


class HomotopyPoissonStructure:
    """Components {j: PolyvectorField} for j >= 2, each of polyvector arity j
    and total cohomological degree n + 1 at cotangent shift n.  Flatness is
    check_homotopy_poisson's job, not assumed here."""

    def __init__(self, model, components):
        self.model = model
        comps = {}
        for j, p in components.items():
            if p.is_zero():
                continue
            if j < 2:
                raise InputError(f"Poisson components start at arity 2, "
                                 f"got {j}")
            if p.model != model:
                raise InputError("component lives on a different model")
            if p.j != j:
                raise InputError(f"component filed under arity {j} has "
                                 f"arity {p.j}")
            want = model.shift + 1
            if p.degrees() not in ([], [want]):
                raise InputError(
                    f"component of arity {j} has degrees {p.degrees()}, "
                    f"expected {want}")
            comps[j] = p
        self.components = {j: comps[j] for j in sorted(comps)}
        # not mutated after construction, so a stored verdict stays valid
        self._checked = None    # (algebra, PoissonReport) of the last check

    @property
    def shift(self):
        return self.model.shift

    def function(self):
        """The defining function sum_j Pi_j on the cotangent total space."""
        # components differ in fiber arity, so their monomials are disjoint
        terms = {}
        for p in self.components.values():
            terms.update(p.poly.terms)
        return Polynomial(self.model.ring, terms, normalise=False)

    def is_zero(self):
        return not self.components

    def __repr__(self):
        return (f"HomotopyPoissonStructure(shift={self.shift}, "
                f"arities={list(self.components)})")


def zero_poisson(model):
    return HomotopyPoissonStructure(model, {})


def polyvector_from_function(model, F):
    """Split a function on the cotangent total space into polyvector
    components by fiber arity: {j: PolyvectorField}.  Exact inverse of
    summing the defining polynomials."""
    parts = F.split_by_count(model.is_fiber)
    return {j: PolyvectorField(model, q) for j, q in parts.items()}


def poisson_structure_from_function(model, F):
    """Degree-(n+1) function -> HomotopyPoissonStructure.  Arity-0 and
    arity-1 parts are rejected: they belong to the base structure, not to
    the Poisson tail."""
    parts = polyvector_from_function(model, F)
    low = [j for j in parts if j < 2]
    if low:
        raise InputError(f"function has polyvector arities {low} below 2")
    return HomotopyPoissonStructure(model, parts)


class PoissonReport:
    """check_homotopy_poisson outcome.

    residuals: {(k, j): {monomial key: scalar}} per bidegree of
    [Q + Pi, Q + Pi]; base_violations is the j = 1 part (failure of the base
    L-infinity relations), lie_violations the part linear in Pi
    (L_Q Pi terms), self_violations the part quadratic in Pi ([Pi, Pi]).
    passed requires all three to vanish.
    """

    def __init__(self, residuals, base, lie, self_part):
        self.residuals = residuals
        self.base_violations = base
        self.lie_violations = lie
        self.self_violations = self_part
        self.passed = not residuals

    def __repr__(self):
        return (f"PoissonReport(passed={self.passed}, "
                f"bidegrees={sorted(self.residuals)})")


def _by_bidegree(model, poly):
    out = {}
    for m, c in poly.terms.items():
        j = model.fiber_count(m)
        out.setdefault((len(m) - j, j), {})[m] = c
    return out


def check_homotopy_poisson(alg, pbar):
    """Residuals of [Q + Pi, Q + Pi] = 0, collected by bidegree.

    Q is the structure polyvector of `alg` on pbar's model; the three parts
    (base relations, L_Q Pi, [Pi, Pi]) are reported separately -- in the
    strict case (Pi = Pi_2 alone) the last two are exactly the paper-style
    split of the Poisson condition.  The report is stored on pbar and
    reused while the same algebra object is checked against it.
    """
    if pbar._checked is not None and pbar._checked[0] is alg:
        return pbar._checked[1]
    model = pbar.model
    if alg.space != model.base:
        raise InputError("Poisson structure lives on a different space")
    Q = structure_polyvector(alg, model.shift)
    P = pbar.function()
    qq = model.bracket(Q.poly, Q.poly)
    mixed = model.bracket(Q.poly, P) + model.bracket(P, Q.poly)
    self_part = model.bracket(P, P)
    total = qq + mixed + self_part
    rep = PoissonReport(
        _by_bidegree(model, total),
        _by_bidegree(model, qq),
        _by_bidegree(model, mixed),
        _by_bidegree(model, self_part))
    pbar._checked = (alg, rep)
    return rep


def poisson_from_symplectic(alg, omega):
    """The strict Poisson bivector Pi_omega of an invariant shift-m pairing:
    the shift-(m+1) cotangent function

        Pi = (1/2) sum_(x,y) (-1)^(deg x + 1) (omega^{-1})_(x y) p_x p_y.

    The (-1)^(deg x + 1) twist is forced: it is the unique relative sign for
    which L_Q Pi = 0 whenever omega is invariant (mixed degrees included),
    and the global sign is pinned by the derived bracket, which then
    satisfies {{Pi, f}, g} = (-1)^|f| {f, g}_omega (so exactly {f, g}_omega
    on even observables, the classical normalization)."""
    if omega.space != alg.space:
        raise InputError("pairing is not defined on the structure space")
    model = CotangentModel(alg.space, omega.shift + 1)
    ring = model.ring
    fiber = {x: ring.gen_index(p) for x, p in model.fibers.items()}
    terms = {}
    for (x, y), w in omega.inverse().items():
        s = 1 if alg.space.degree(x) % 2 else -1
        terms[(fiber[x], fiber[y])] = Fraction(w * s, 2)
    # normalising sorts each word p_x p_y and merges it with p_y p_x
    F = Polynomial(ring, terms)
    return HomotopyPoissonStructure(model, {2: PolyvectorField(model, F)})
