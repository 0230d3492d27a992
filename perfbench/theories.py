"""Theory files for the benchmark workloads.

Every file is written as text the CLI reads; the program never sees the
seed.  The seeded generators vary values and orderings but not the sparsity
pattern, so every seed asks the program for the same amount of work:

* gl_torus(n, seed): torus model (x) gl_n with the trace pairing and the
  Poisson section Pi_omega of the realized AKSZ pairing.  The seed picks a
  sign for every basis vector E_ij and the order of the basis labels.
* arity3(seed, model): a 4-dimensional coefficient algebra of the shape of
  acceptance criterion 9's slowest instance (degrees 0, 1, 1, 2 at shift 0,
  brackets of arity 1, 2 and 3 raised from totally symmetric forms Theta),
  tensored with a cdga model.  The seed picks the nonzero values of Theta
  and of the pairing on a fixed support.
* laurent_sl2(name, window): the built-in wzw / toda files, at their own
  window or at a smaller one for the self-test.
"""

import itertools
import random

from bvkit import theoryfile
from bvkit.cdga import laurent_dolbeault_model
from bvkit.examples import get_example, toda_splitting, wzw_splitting
from bvkit.graded import GradedVectorSpace, koszul_sign
from bvkit.polyvectors import poisson_from_symplectic
from bvkit.symplectic import ShiftedSymplecticStructure
from bvkit.theoryfile import TheoryFile

SPLITTINGS = {"wzw": wzw_splitting, "toda": toda_splitting}


def laurent_sl2(name, window=None):
    """The built-in file `name` ("wzw" or "toda"); with `window`, the same
    theory on a smaller Laurent window (splitting rebuilt to match)."""
    tf = get_example(name)
    if window is not None and window != tf.model["window"]:
        tf.model = dict(tf.model, window=window)
        tf.splitting = SPLITTINGS[name](laurent_dolbeault_model(window))
    return theoryfile.serialize(tf)


def gl_torus(n, seed):
    """torus (x) gl_n, trace pairing (shift 2), Pi_omega at shift 1."""
    rng = random.Random(seed)
    basis = [(i, j) for i in range(n) for j in range(n)]
    eps = {ij: rng.choice((1, -1)) for ij in basis}
    label = {ij: f"E{ij[0]}{ij[1]}" for ij in basis}
    order = list(basis)
    rng.shuffle(order)
    pos = {ij: k for k, ij in enumerate(order)}
    # b_ij = eps_ij E_ij:
    # [b_ij, b_kl] = eps_ij eps_kl (d_jk eps_il b_il - d_li eps_kj b_kj)
    brackets = []
    for a, b in itertools.combinations(order, 2):
        (i, j), (k, l) = a, b
        row = {}
        if j == k:
            row[(i, l)] = row.get((i, l), 0) + eps[a] * eps[b] * eps[(i, l)]
        if l == i:
            row[(k, j)] = row.get((k, j), 0) - eps[a] * eps[b] * eps[(k, j)]
        for o, c in row.items():
            if c:
                brackets.append(((label[a], label[b]), label[o], c))
    # tr(b_ij b_kl) = eps_ij eps_kl d_jk d_il
    pairing = [(label[a], label[(a[1], a[0])], eps[a] * eps[(a[1], a[0])])
               for a in order if pos[a] <= pos[(a[1], a[0])]]
    tf = TheoryFile(
        f"gl{n}-torus",
        f"torus (x) gl_{n} with the trace pairing and its Poisson section "
        f"Pi_omega (seed {seed})",
        {0: tuple(label[ij] for ij in order)}, {2: brackets},
        symplectic=(2, pairing), model={"kind": "torus"})
    th = theoryfile.realize(tf)
    pbar = poisson_from_symplectic(th.algebra, th.omega)
    names = pbar.model.ring.names
    tf.poisson = (pbar.shift, {
        j: [(tuple(names[i] for i in mono), c)
            for mono, c in pv.poly.terms.items()]
        for j, pv in pbar.components.items()})
    return theoryfile.serialize(tf)


ARITY3_SPACE = {0: ("v1",), 1: ("v2", "v3"), 2: ("v0",)}
ARITY3_SHIFT = 0
ARITY3_PAIRS = (("v0", "v1"), ("v2", "v3"))
# canonical support of Theta_n (n + 1 labels, total degree n - shift)
ARITY3_THETA = {1: [("v1", "v3")],
                2: [("v1", "v2", "v3")],
                3: [("v1", "v2", "v2", "v3"), ("v1", "v2", "v3", "v3")]}
NONZERO = (-2, -1, 1, 2)


def _theta(space, support, values):
    """Totally graded-symmetric form (shifted degrees) on all orderings."""
    form = {}
    for key, c in zip(support, values):
        degs = tuple(space.degree(x) - 1 for x in key)
        for perm in itertools.permutations(range(len(key))):
            form[tuple(key[i] for i in perm)] = koszul_sign(perm, degs) * c
    return form


def arity3(seed, model):
    """The seeded arity-3 coefficient algebra tensored with `model`, a
    theory-file model recipe such as {"kind": "laurent", "window": 2}.

    l_n is raised from Theta_n through the pairing,
    omega(l_n(x_1..x_n), y) = Theta_n(x_1..x_n, y), so the brackets are
    invariant by construction."""
    rng = random.Random(seed)
    space = GradedVectorSpace(ARITY3_SPACE)
    pairing = {xy: rng.choice((1, 2, -1)) for xy in ARITY3_PAIRS}
    inv = ShiftedSymplecticStructure(space, ARITY3_SHIFT, pairing).inverse()
    brackets = {}
    for n, support in ARITY3_THETA.items():
        values = [rng.choice(NONZERO) for _ in support]
        rows = {}
        for key, c in _theta(space, support, values).items():
            head, y = key[:-1], key[-1]
            if head != space.sort_labels(head):
                continue
            for (yy, o), w in inv.items():
                if yy == y:
                    row = rows.setdefault(head, {})
                    row[o] = row.get(o, 0) + c * w
        brackets[n] = sorted((k, o, c) for k, row in rows.items()
                             for o, c in row.items() if c)
    tf = TheoryFile(
        "aksz-arity3",
        f"arity-1/2/3 coefficient algebra of dimension 4 (seed {seed}) in "
        f"an AKSZ tensor",
        dict(ARITY3_SPACE), brackets,
        symplectic=(ARITY3_SHIFT, [(x, y, c) for (x, y), c in pairing.items()]),
        model=model)
    return theoryfile.serialize(tf)
