"""Boundary theories of interval-topological bulks.

A coordinate Lagrangian splitting g = l_+ (+) l_- of a shift-n symplectic
structure identifies g with T*[n] l_+ via

    Phi|_(l_+) = id,   omega(m, p) = omega_can(Phi m, p)   (m in l_-, p in l_+),

which is a symplectomorphism exactly when both subspaces are isotropic and
omega|_(l_- x l_+) is non-degenerate.  Pushing the action S = S(omega, brackets)
through Phi and sorting by fiber arity j gives the decomposition S = sum_j S_j:
S_0 = 0 and S_1 = Q_(l_+) whenever the splitting is valid, and the tail
{S_j}_(j>=2) is the induced boundary homotopy Poisson structure (one shift
below omega, living on the shift-n cotangent model of l_+).

Splittings are given by a partition of the basis labels; the complement is
always chosen by the caller (`suggest_complement` proposes one, but the
boundary structure depends on the choice up to homotopy only, and no
canonical pick exists).
"""

from .cdga import aksz_symplectic, interval_model, tensor_linfty
from .errors import InputError, StructureError
from .formal import Polynomial, PolynomialRing
from .graded import GradedVectorSpace, MultilinearMap, SYM_GRADED
from .linalg import invert, rank
from .linfty import LInftyStructure, strict_map_check
from .polyvectors import (CotangentModel, HomotopyPoissonStructure,
                          PolyvectorField, structure_polyvector)
from .symplectic import action_from_brackets, check_symplectic


def _sub_space(space, labels):
    keep = set(labels)
    return GradedVectorSpace({d: [l for l in labs if l in keep]
                              for d, labs in space.components.items()})


def _check_labels(alg, omega, labels):
    if omega.space != alg.space:
        raise InputError("pairing is not defined on the structure space")
    for lab in labels:
        if lab not in alg.space:
            raise InputError(f"unknown basis label {lab!r}")


class LagrangianSplitting:
    """g = l_+ (+) l_- as a partition of the basis labels.

    Holds the ambient structure and pairing, the two subspaces, the
    inclusion of l_+, and the shift-n cotangent model of l_+ used by the
    decomposition.  Validity is check_splitting's job.
    """

    def __init__(self, alg, omega, plus, minus):
        _check_labels(alg, omega, tuple(plus) + tuple(minus))
        self.alg = alg
        self.omega = omega
        # keep the ambient basis order within each part
        plus, minus = set(plus), set(minus)
        self.plus = tuple(l for l in alg.space.labels if l in plus)
        self.minus = tuple(l for l in alg.space.labels if l in minus)
        self.plus_space = _sub_space(alg.space, self.plus)
        self.minus_space = _sub_space(alg.space, self.minus)
        self.inclusion_plus = MultilinearMap(
            (self.plus_space,), alg.space, 0, {(p,): {p: 1} for p in self.plus})
        self.model = CotangentModel(self.plus_space, omega.shift)
        # not mutated after construction, so stored results stay valid
        self._report = None     # check_splitting
        self._pieces = {}       # decompose_action, per on_flags value

    def induced_structure(self):
        """Brackets restricted to l_+ inputs and projected onto l_+.

        Equals l_n o f^(x)n composed with the projection; for a closed l_+
        the projection is invisible and this is the genuine induced
        structure (check_splitting certifies closure).
        """
        plus = set(self.plus)
        sp = self.plus_space
        brackets = {}
        for n, m in self.alg.brackets.items():
            coeffs = {}
            for key, row in m.coefficients.items():
                if not all(l in plus for l in key):
                    continue
                kept = {o: c for o, c in row.items() if o in plus}
                if kept:
                    coeffs[key] = kept
            flags = tuple(k for k in m.flags if all(l in plus for l in k))
            if coeffs or flags:
                brackets[n] = MultilinearMap(
                    (sp,) * n, sp, 2 - n, coeffs, SYM_GRADED, 1, flags)
        return LInftyStructure(sp, brackets)

    def pairing_matrix(self):
        """M with xi_(p*) = sum_m M[p][m] xi_m under the identification Phi.

        Row p, column m: M[p][m] = (-1)^(deg p deg p* + n) omega(m, p), the
        sign being omega_can(p*, p) on the shift-n cotangent model.  Sparse:
        {p: {m: M[p][m]}} with a (possibly empty) row for every p in l_+ and
        each row in the order of l_-.
        """
        n = self.omega.shift
        sp = self.alg.space
        rows = {p: {} for p in self.plus}
        partners = self.omega.partners()
        for m in self.minus:
            for p, c in partners.get(m, ()):
                row = rows.get(p)
                if row is not None:
                    dp = sp.degree(p)
                    row[m] = -c if (dp * (2 - n - dp) + n) % 2 else c
        return rows

    def __repr__(self):
        return (f"LagrangianSplitting(plus={len(self.plus)}, "
                f"minus={len(self.minus)}, shift={self.omega.shift})")


class SplittingReport:
    """Independent witnesses for the four splitting invariants.

    complementarity: labels missing from or shared by the two parts;
    isotropy: nonzero pairings inside one part;
    closure: strict-morphism violations of the l_+ inclusion;
    pairing: kernel/shape witness when omega|_(l_- x l_+) is not invertible.
    """

    def __init__(self, complementarity, isotropy, closure, pairing):
        self.complementarity = complementarity
        self.isotropy = isotropy
        self.closure = closure
        self.pairing = pairing

    @property
    def passed(self):
        return not (self.complementarity or self.isotropy
                    or self.closure.violations or self.pairing)

    def __repr__(self):
        return (f"SplittingReport(passed={self.passed}, "
                f"complementarity={self.complementarity}, "
                f"isotropy={self.isotropy}, "
                f"closure={self.closure.violations}, "
                f"pairing={self.pairing})")


def check_splitting(s):
    if s._report is not None:
        return s._report
    space = s.alg.space
    comp = []
    both = set(s.plus) & set(s.minus)
    for lab in sorted(both):
        comp.append(("shared", lab))
    either = set(s.plus) | set(s.minus)
    for lab in space.labels:
        if lab not in either:
            comp.append(("missing", lab))
    iso = []
    for part, labels in (("plus", set(s.plus)), ("minus", set(s.minus))):
        for (x, y), c in sorted(s.omega.entries.items()):
            if c and x in labels and y in labels:
                iso.append((part, x, y, c))
    closure = strict_map_check(s.inclusion_plus, s.induced_structure(), s.alg,
                               injective=True)
    pairing = []
    if len(s.plus) != len(s.minus):
        pairing.append(("shape", len(s.plus), len(s.minus)))
    elif invert(s.pairing_matrix(), s.minus) is None:
        pairing.append(("singular", "omega restricted to l_- x l_+"))
    s._report = SplittingReport(comp, iso, closure, pairing)
    return s._report


def suggest_complement(alg, omega, plus):
    """Greedy isotropic complement to `plus` among the coordinate labels.

    Returns a label tuple, or None when no coordinate complement exists
    (the result is a suggestion only -- the boundary structure depends on
    the choice up to homotopy, so the caller must record it)."""
    plus = tuple(plus)
    _check_labels(alg, omega, plus)
    taken = set(plus)
    partners = omega.partners()
    # {p: {m: omega(m, p)}} over p in l_+, one column per chosen m; the
    # row signs of the splitting's pairing matrix do not change its rank
    block = {}
    chosen = []
    for m in alg.space.labels:
        if m in taken or omega.pairing(m, m) \
                or any(omega.pairing(m, m2) for m2 in chosen):
            continue
        for p, c in partners.get(m, ()):
            if p in taken:
                block.setdefault(p, {})[m] = c
        # keep m only if it adds an independent functional on l_+ (a
        # rejected m stays in the block, outside the listed columns)
        if rank(block, chosen + [m]) == len(chosen) + 1:
            chosen.append(m)
    if len(chosen) != len(plus):
        return None
    return tuple(chosen)


def _monomial_name(ring, mono):
    return "*".join(ring.names[i] for i in mono)


def _to_model(s):
    """Generator images of Phi, from the ambient ring to the cotangent
    ring: xi_m = sum_p (M^-1)[m][p] xi_(p*)."""
    B = invert(s.pairing_matrix(), s.minus)
    if B is None:
        raise StructureError("omega restricted to l_- x l_+ is singular")
    amb = PolynomialRing.functions_on(s.alg.space)
    ring = s.model.ring
    position = {p: b for b, p in enumerate(s.plus)}
    return {amb.gen_index(m): [
        (ring.gen_index(s.model.fibers[p]), B[m][p])
        for p in sorted(B[m], key=position.__getitem__)] for m in s.minus}


def _to_ambient(s):
    """(ambient ring, generator images of Phi^-1 from the cotangent ring to
    it): xi_(p*) = sum_m M[p][m] xi_m."""
    amb = PolynomialRing.functions_on(s.alg.space)
    ring = s.model.ring
    return amb, {ring.gen_index(s.model.fibers[p]): [
        (amb.gen_index(m), c) for m, c in row.items()]
        for p, row in s.pairing_matrix().items()}


def decompose_action(s, max_j=None, on_flags="error"):
    """S = sum_j S_j on the shift-n cotangent model of l_+.

    Returns the list [S_0, S_1, ...] of PolyvectorField sorted by fiber
    arity; reassemble() inverts the rewriting exactly.  max_j, when given,
    pads the list with zeros up to that arity and refuses a decomposition
    that exceeds it.  on_flags is passed to action_from_brackets.
    """
    pieces = s._pieces.get(on_flags)
    if pieces is None:
        rep = check_splitting(s)
        if not rep.passed:
            raise StructureError(f"invalid splitting: {rep}")
        srep = check_symplectic(s.alg, s.omega)
        if not srep.passed:
            raise StructureError(
                f"ambient pairing fails check_symplectic: {srep}")
        S = action_from_brackets(s.alg, s.omega, on_flags=on_flags)
        ring = s.model.ring
        total = S.polynomial.substitute(ring, _to_model(s))
        by_j = {}
        for mono, c in total.terms.items():
            by_j.setdefault(s.model.fiber_count(mono), {})[mono] = c
        pieces = s._pieces[on_flags] = tuple(
            PolyvectorField(s.model, Polynomial(ring, by_j.get(j, {})))
            for j in range(max(by_j, default=0) + 1))
    top = len(pieces) - 1
    if max_j is not None and top > max_j:
        raise InputError(f"decomposition has arity {top} > max_j={max_j}")
    pad = 0 if max_j is None else max_j - top
    return list(pieces) + [PolyvectorField(s.model, s.model.ring.zero())
                           for _ in range(pad)]


def reassemble(s, pieces):
    """sum_j S_j rewritten back in the ambient coordinates; inverse of
    decompose_action (exact identity with the original action)."""
    amb, gen_map = _to_ambient(s)
    total = amb.zero()
    for p in pieces:
        total = total + p.poly.substitute(amb, gen_map)
    return total


class BoundaryTheory:
    """The induced structure on l_+ with its boundary Poisson tail.

    algebra: LInftyStructure on l_+ (the brackets l_n o f^(x)n);
    poisson: HomotopyPoissonStructure {S_j}_(j>=2) on the shift-n cotangent
    model of l_+ (one shift below the structure it is Poisson for);
    pieces: the full decomposition, including S_1.
    """

    def __init__(self, splitting, algebra, poisson, pieces):
        self.splitting = splitting
        self.algebra = algebra
        self.poisson = poisson
        self.pieces = pieces

    @property
    def model(self):
        return self.splitting.model

    def __repr__(self):
        return (f"BoundaryTheory(dim={self.algebra.space.dim}, "
                f"poisson_arities={list(self.poisson.components)})")


def _strip_flags(alg):
    brackets = {}
    for n, m in alg.brackets.items():
        brackets[n] = MultilinearMap(m.inputs, m.output, m.degree,
                                     m.coefficients, m.symmetry,
                                     m.symmetry_shift)
    return LInftyStructure(alg.space, brackets)


def boundary_theory(s, on_flags="error"):
    """Decompose the action and certify the two structural identities.

    S_0 = 0 and S_1 = the vector field of the induced brackets are hard
    errors when violated: a mismatch there signals a non-Lagrangian or
    non-closed l_+, never data to absorb into the Poisson tail.  Returns
    the BoundaryTheory with Pi-bar = {S_j}_(j>=2).
    """
    pieces = decompose_action(s, on_flags=on_flags)
    ring = s.model.ring
    if not pieces[0].is_zero():
        mono = next(iter(pieces[0].poly.terms))
        raise StructureError(
            f"S_0 != 0: offending monomial {_monomial_name(ring, mono)}")
    induced = s.induced_structure()
    if induced.is_flagged():
        if on_flags != "drop":
            raise InputError("induced brackets are flagged; pass "
                             "on_flags='drop' if flagged components vanish")
        induced = _strip_flags(induced)
    QF = structure_polyvector(induced, s.model)
    diff = pieces[1].poly + QF.poly.scale(-1) if len(pieces) > 1 \
        else QF.poly.scale(-1)
    if not diff.is_zero():
        mono = next(iter(diff.terms))
        raise StructureError(
            f"S_1 does not match the induced brackets at monomial "
            f"{_monomial_name(ring, mono)}")
    poisson = HomotopyPoissonStructure(
        s.model, {j: p for j, p in enumerate(pieces) if j >= 2})
    return BoundaryTheory(s, induced, poisson, pieces)


class IntervalBulk:
    """A bulk theory presented as interval (x) Y with the AKSZ pairing.

    The tensor factorization is recorded at construction -- phase-space
    extraction reads it back instead of solving the recognition problem.
    """

    def __init__(self, fiber, fiber_omega):
        if fiber_omega.space != fiber.space:
            raise InputError("pairing is not defined on the fiber space")
        self.model = interval_model()
        self.fiber = fiber
        self.fiber_omega = fiber_omega
        self.algebra = tensor_linfty(self.model, fiber)
        self.omega = aksz_symplectic(self.model, fiber_omega)

    def __repr__(self):
        return (f"IntervalBulk(fiber_dim={self.fiber.space.dim}, "
                f"shift={self.omega.shift})")


def extract_phase_space(bulk):
    """(Y, omega^d) with omega_bulk = I (x) omega^d; the phase-space pairing
    sits one shift above the bulk pairing.  Refuses anything that does not
    record an interval factorization."""
    if not isinstance(bulk, IntervalBulk):
        raise InputError("bulk is not presented as an interval tensor; "
                         "build it with IntervalBulk(Y, omega)")
    assert bulk.fiber_omega.shift == bulk.omega.shift + 1
    rep = check_symplectic(bulk.fiber, bulk.fiber_omega)
    if not rep.passed:
        raise StructureError(f"phase-space pairing fails check_symplectic: "
                             f"{rep}")
    return bulk.fiber, bulk.fiber_omega
