"""Higher Poisson centres, universal bulk theories, and their verifications.

The centre of (l, Pi-bar) at shift n is the cotangent total space l (+)
l*[n-2] whose differential-plus-brackets are the Hamiltonian vector field of

    F = F_Q + sum_j Pi_j

through the canonical pairing: the untwisted part F_Q reproduces the
semidirect product with the coadjoint module, the twist adds the Hamiltonian
field of Pi-bar.  [F, F] = 0 (square-zero) holds exactly when Pi-bar is
homotopy Poisson, which makes check_relations on the assembled structure and
check_homotopy_poisson on the input interchangeable oracles.

The universal bulk is the interval tensor of the centre with the AKSZ
pairing I (x) omega_can; its canonical boundary condition (l_+ = the zero
section, l_- = the fibers) recovers (Q_l, Pi-bar) exactly, which
roundtrip_check verifies as structure constants.
"""

from .boundary import IntervalBulk, LagrangianSplitting, boundary_theory
from .errors import InputError, StructureError
from .graded import MultilinearMap
from .linalg import rank
from .linfty import LInftyStructure, vf_to_brackets
from .polyvectors import (check_homotopy_poisson, poisson_from_symplectic,
                          structure_polyvector)
from .symplectic import check_symplectic, hamiltonian_components


class TwistedCotangent:
    """T*_Pi[n] l: the shift-n cotangent space with the twisted differential.

    algebra: the assembled LInftyStructure on l (+) l*[n-2];
    omega: the canonical shift-n pairing omega_can(a, a*) = 1;
    zero_section: the inclusion of l, a strict morphism for every twisting.
    """

    def __init__(self, base, poisson, model, algebra):
        self.base = base
        self.poisson = poisson
        self.model = model
        self.algebra = algebra
        self.omega = model.omega
        self.zero_section = MultilinearMap(
            (base.space,), model.total, 0,
            {(a,): {a: 1} for a in base.space.labels})

    @property
    def shift(self):
        return self.model.shift

    def __repr__(self):
        return (f"TwistedCotangent(base_dim={self.base.space.dim}, "
                f"shift={self.shift}, "
                f"poisson_arities={list(self.poisson.components)})")


def assemble_twisted(l, pbar):
    """The Hamiltonian vector field of F_Q + Pi-bar as brackets on the
    cotangent total space, with no flatness requirement (the raw 'only if'
    side of the square-zero equivalence)."""
    model = pbar.model
    if model.base != l.space:
        raise InputError("Poisson structure lives on a different space")
    F = structure_polyvector(l, model.shift).poly + pbar.function()
    return vf_to_brackets(model.total, hamiltonian_components(
        F, model.tensor, model.total.labels))


def twisted_cotangent(l, pbar, shift=None):
    """The higher Poisson centre Z_Pi(l) = T*_Pi[n] l.

    Requires check_homotopy_poisson to pass (the square-zero condition on
    the assembled differential is equivalent to it); shift, when given, must
    match the cotangent model of pbar.
    """
    if shift is not None and shift != pbar.model.shift:
        raise InputError(f"requested shift {shift} but the Poisson structure "
                         f"lives at cotangent shift {pbar.model.shift}")
    rep = check_homotopy_poisson(l, pbar)
    if not rep.passed:
        raise StructureError(
            f"Pi-bar is not homotopy Poisson; residual bidegrees "
            f"{sorted(rep.residuals)}")
    algebra = assemble_twisted(l, pbar)
    return TwistedCotangent(l, pbar, pbar.model, algebra)


class UniversalBulk(IntervalBulk):
    """interval (x) Z_Pi(l) with omega = I (x) omega_can; the recorded
    factorization makes phase-space extraction exact."""

    def __init__(self, twisted):
        super().__init__(twisted.algebra, twisted.omega)
        self.twisted = twisted


def universal_bulk(l, pbar, shift=None):
    return UniversalBulk(twisted_cotangent(l, pbar, shift))


def canonical_splitting(twisted):
    """l_+ = the zero section, l_- = the fibers: the boundary condition under
    which the universal bulk reproduces its input."""
    return LagrangianSplitting(
        twisted.algebra, twisted.omega,
        twisted.base.space.labels,
        tuple(twisted.model.fibers[a] for a in twisted.base.space.labels))


class RoundtripReport:
    """Structure-constant comparison of (Q_l, Pi-bar) with the boundary
    theory of the universal bulk at the canonical splitting."""

    def __init__(self, bracket_mismatches, poisson_mismatches):
        self.bracket_mismatches = bracket_mismatches
        self.poisson_mismatches = poisson_mismatches
        self.passed = not bracket_mismatches and not poisson_mismatches

    def __repr__(self):
        return (f"RoundtripReport(passed={self.passed}, "
                f"brackets={self.bracket_mismatches}, "
                f"poisson={self.poisson_mismatches})")


def roundtrip_check(l, pbar, shift=None):
    bulk = universal_bulk(l, pbar, shift)
    bt = boundary_theory(canonical_splitting(bulk.twisted))
    bad_brackets = []
    for n in sorted(set(l.brackets) | set(bt.algebra.brackets)):
        got = bt.algebra.brackets.get(n)
        want = l.brackets.get(n)
        if (got.coefficients if got else {}) != \
                (want.coefficients if want else {}):
            bad_brackets.append(n)
    bad_poisson = []
    for j in sorted(set(pbar.components) | set(bt.poisson.components)):
        got = bt.poisson.components.get(j)
        want = pbar.components.get(j)
        if (got.poly.terms if got else {}) != \
                (want.poly.terms if want else {}):
            bad_poisson.append(j)
    return RoundtripReport(bad_brackets, bad_poisson)


class AcyclicityReport:
    """Per-degree rank bookkeeping for the underlying cochain complex.

    cohomology: {degree: dim ker - rank of the incoming differential};
    acyclic iff every entry is zero.
    """

    def __init__(self, cohomology):
        self.cohomology = cohomology
        self.passed = not any(cohomology.values())

    def __repr__(self):
        nonzero = {d: k for d, k in self.cohomology.items() if k}
        return f"AcyclicityReport(acyclic={self.passed}, cohomology={nonzero})"


def acyclic_check(alg):
    """Cohomology dimensions of (space, l_1) by rank computation."""
    space = alg.space
    b1 = alg.brackets.get(1)
    coeffs = b1.coefficients if b1 else {}

    def block(d):
        rows_lab = space.component(d)
        cols_lab = space.component(d + 1)
        return [[coeffs.get((r,), {}).get(c, 0) for c in cols_lab]
                for r in rows_lab]

    cohomology = {}
    for d in space.components:
        dim = len(space.component(d))
        r_out = rank(block(d))
        r_in = rank(block(d - 1))
        cohomology[d] = dim - r_out - r_in
    return AcyclicityReport(cohomology)


def triviality_check(g, omega):
    """Acyclicity of the centre of a non-degenerate structure: the twist by
    Pi_omega turns the cotangent differential into an isomorphism between
    the zero section and the fibers."""
    rep = check_symplectic(g, omega)
    if not rep.passed:
        raise InputError(f"pairing fails check_symplectic: {rep}")
    pbar = poisson_from_symplectic(g, omega)
    return acyclic_check(twisted_cotangent(g, pbar).algebra)
