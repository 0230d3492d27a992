"""Builtin theory files: small worked examples covering every pipeline.

Each builder returns a TheoryFile; get_example(name) looks one up.  The
catalogue:

    topological-mechanics   centre of an ordinary constant Poisson plane,
                            with its canonical zero-section splitting
    poisson-sigma           the same Poisson plane as bare (l, Pi) data,
                            input for the universal-bulk commands
    chern-simons            torus (x) sl2 phase space with the trace
                            pairing and a holomorphic/antiholomorphic
                            polarization
    wzw                     windowed Dolbeault (x) sl2 current algebra,
                            full de Rham differential, splitting by form
                            type -- the boundary bivector is the affine
                            (current-algebra) structure
    toda                    the same model with the principal-nilpotent
                            dz twist and the nilpotent/Borel splitting
    kw-b-twist              centre of the chern-simons boundary theory:
                            a 0-shifted cotangent with its canonical
                            splitting, one level deeper into the bulk
"""

from .cdga import laurent_dolbeault_model, tensor_label, torus_model
from .errors import InputError
from .graded import GradedVectorSpace
from .linfty import LInftyStructure
from .polyvectors import CotangentModel, HomotopyPoissonStructure, PolyvectorField
from .symplectic import ShiftedSymplecticStructure
from .theoryfile import (TheoryFile, canonical_bracket_entries, canonical_flags,
                         canonical_pairing_entries)

LAURENT_WINDOW = 3


def sl2_structure():
    V = GradedVectorSpace({0: ["e", "f", "h"]})
    return LInftyStructure.from_entries(
        V, {2: [(("e", "f"), "h", 1), (("h", "e"), "e", 2),
                (("h", "f"), "f", -2)]})


def sl2_trace(space):
    return ShiftedSymplecticStructure(space, 2, {("e", "f"): 1, ("h", "h"): 2})


def _poisson_entries(pbar):
    comps = {}
    for j, pv in pbar.components.items():
        terms = []
        for mono, c in pv.poly.terms.items():
            labels = tuple(pv.model.ring.names[i] for i in mono)
            terms.append((labels, c))
        comps[j] = sorted(terms)
    return comps


def _from_structure(name, description, alg, omega=None, splitting=None,
                    poisson=None):
    sym = None
    if omega is not None:
        sym = (omega.shift, canonical_pairing_entries(omega))
    return TheoryFile(name, description,
                      {d: alg.space.component(d) for d in alg.space.components},
                      canonical_bracket_entries(alg),
                      flags=canonical_flags(alg),
                      symplectic=sym, splitting=splitting, poisson=poisson)


def _sl2_tensor_file(name, description, model_recipe, splitting):
    alg = sl2_structure()
    tf = _from_structure(name, description, alg, sl2_trace(alg.space),
                         splitting=splitting)
    tf.model = model_recipe
    return tf


def topological_mechanics():
    """Centre Z_Pi(M) of a constant symplectic plane in degree 1, spelled
    out as explicit brackets with omega_can and the zero-section
    splitting."""
    from .centre import canonical_splitting, twisted_cotangent
    V = GradedVectorSpace({1: ["q1", "q2"]})
    l = LInftyStructure(V, {})
    model = CotangentModel(V, 1)
    r = model.ring
    pbar = HomotopyPoissonStructure(model, {2: PolyvectorField(
        model, r.generator(model.fibers["q1"])
        * r.generator(model.fibers["q2"]))})
    tc = twisted_cotangent(l, pbar)
    s = canonical_splitting(tc)
    return _from_structure(
        "topological-mechanics",
        "1-shifted cotangent of a constant Poisson plane, twisted by the "
        "bivector; the canonical splitting recovers the plane as its own "
        "boundary theory.",
        tc.algebra, tc.omega, splitting=(s.plus, s.minus))


def poisson_sigma():
    """The same Poisson plane as input data: an abelian target with a
    constant bivector at cotangent shift 1."""
    V = GradedVectorSpace({1: ["q1", "q2"]})
    l = LInftyStructure(V, {})
    model = CotangentModel(V, 1)
    r = model.ring
    pbar = HomotopyPoissonStructure(model, {2: PolyvectorField(
        model, r.generator(model.fibers["q1"])
        * r.generator(model.fibers["q2"]))})
    return _from_structure(
        "poisson-sigma",
        "Constant Poisson structure on a degree-1 plane; feed to the centre "
        "and roundtrip commands to build its 0-shifted universal bulk.",
        l, poisson=(1, _poisson_entries(pbar)))


def chern_simons():
    m = torus_model()
    plus = tuple(tensor_label(a, x) for a in ("b", "ab") for x in "efh")
    minus = tuple(tensor_label(a, x) for a in ("1", "a") for x in "efh")
    return _sl2_tensor_file(
        "chern-simons",
        "Torus cdga tensor sl2 with the 0-shifted trace pairing; the "
        "splitting by the second cycle produces a strict linear boundary "
        "bivector.",
        {"kind": "torus"}, (plus, minus))


def wzw_splitting(model):
    """l_+ = the dz-forms (x) sl2, l_- = the rest: splitting by form type."""
    plus, minus = [], []
    for a in model.space.labels:
        for x in "efh":
            (plus if "dz" in a else minus).append(tensor_label(a, x))
    return tuple(plus), tuple(minus)


def toda_splitting(model):
    """l_+ = forms (x) span{e} plus dz-forms (x) span{e, h}: the nilpotent
    directions together with their image under the dz twist."""
    keep = {(False, "e"), (True, "e"), (True, "h")}
    plus, minus = [], []
    for a in model.space.labels:
        for x in "efh":
            part = ("dz" in a, x)
            (plus if part in keep else minus).append(tensor_label(a, x))
    return tuple(plus), tuple(minus)


def wzw():
    plus, minus = wzw_splitting(laurent_dolbeault_model(LAURENT_WINDOW))
    return _sl2_tensor_file(
        "wzw",
        "Windowed Dolbeault algebra tensor sl2 with the full de Rham "
        "differential; splitting by form type yields the affine "
        "current-algebra bivector del (x) 1 + wedge (x) bracket.",
        {"kind": "laurent", "window": LAURENT_WINDOW, "derivation": "del"},
        (plus, minus))


def toda():
    plus, minus = toda_splitting(laurent_dolbeault_model(LAURENT_WINDOW))
    return _sl2_tensor_file(
        "toda",
        "The wzw model twisted by dz (x) [f, -]; splitting along the "
        "nilpotent/Borel decomposition yields the three-term boundary "
        "bivector of the Toda hierarchy.",
        {"kind": "laurent", "window": LAURENT_WINDOW, "derivation": "del",
         "dz_twist": "f"},
        (plus, minus))


def kw_b_twist():
    """One level deeper: the centre of the chern-simons boundary theory."""
    from .boundary import LagrangianSplitting, boundary_theory
    from .cdga import aksz_symplectic, tensor_linfty
    from .centre import canonical_splitting, twisted_cotangent
    g = sl2_structure()
    m = torus_model()
    t = tensor_linfty(m, g)
    om = aksz_symplectic(m, sl2_trace(g.space))
    plus = [tensor_label(a, x) for a in ("b", "ab") for x in "efh"]
    minus = [tensor_label(a, x) for a in ("1", "a") for x in "efh"]
    bt = boundary_theory(LagrangianSplitting(t, om, plus, minus))
    tc = twisted_cotangent(bt.algebra, bt.poisson)
    s = canonical_splitting(tc)
    return _from_structure(
        "kw-b-twist",
        "Centre of the chern-simons boundary theory: a 0-shifted twisted "
        "cotangent whose canonical splitting reproduces the current-algebra "
        "boundary data; its interval bulk is (-1)-shifted.",
        tc.algebra, tc.omega, splitting=(s.plus, s.minus))


EXAMPLES = {
    "topological-mechanics": topological_mechanics,
    "poisson-sigma": poisson_sigma,
    "chern-simons": chern_simons,
    "wzw": wzw,
    "toda": toda,
    "kw-b-twist": kw_b_twist,
}


def get_example(name):
    try:
        return EXAMPLES[name]()
    except KeyError:
        raise InputError(
            f"unknown example {name!r}; available: "
            + ", ".join(sorted(EXAMPLES))) from None
