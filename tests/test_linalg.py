"""The sparse elimination kernel against the dense reference of oracles.py:
equal values and equal int/Fraction types on every shape."""
import random
from fractions import Fraction

from bvkit.linalg import invert, kernel_vector, rank

from oracles import dense_invert, dense_kernel_vector, dense_rank


def _random_matrix(rng, nrows, ncols):
    """Sparse-ish rational rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.choice([1, -2, Fraction(1, 3)]), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
            continue
        density = rng.choice([0.0, 0.2, 0.5, 1.0])
        rows.append([rng.choice([rng.randint(-3, 3), Fraction(
            rng.randint(-5, 5), rng.randint(1, 4))])
            if rng.random() < density else 0 for _ in range(ncols)])
    return rows


def _signed_permutation(rng, n, extra=0):
    """A permutation matrix with random signs, plus `extra` stray entries:
    the shape of the pairing blocks and of the canonical cotangent pairing."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice([1, -1, 2, Fraction(-1, 2)])
    for _ in range(extra):
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-2, 2)
    return rows


def _sparse(rows, ncols):
    """({row key: {column key: entry}}, columns) of a dense matrix, with
    string keys so that positions and labels cannot be confused."""
    columns = [f"c{j}" for j in range(ncols)]
    return {f"r{i}": {columns[j]: x for j, x in enumerate(row) if x}
            for i, row in enumerate(rows)}, columns


def _typed(values):
    return [(type(x), x) for x in values]


def _agree(rows, ncols):
    sparse, columns = _sparse(rows, ncols)
    assert rank(sparse, columns) == dense_rank(rows)
    if rows:
        want = dense_kernel_vector(rows)
        got = kernel_vector(sparse, columns)
        if want is None:
            assert got is None
        else:
            assert _typed(got.get(c, 0) for c in columns) == _typed(want)
    want = dense_invert(rows)
    got = invert(sparse, columns)
    if want is None:
        assert got is None
    else:
        keys = list(sparse)
        dense = [[got[c].get(r, 0) for r in keys] for c in columns]
        assert [_typed(row) for row in dense] == [_typed(row) for row in want]


def test_random_matrices_match_dense():
    rng = random.Random(20161)
    for _ in range(3000):
        nrows, ncols = rng.randint(1, 7), rng.randint(0, 7)
        if rng.random() < 0.4:
            ncols = nrows
        _agree(_random_matrix(rng, nrows, ncols), ncols)


def test_signed_permutation_blocks_match_dense():
    rng = random.Random(432)
    for n in (1, 2, 5, 12, 40):
        for extra in (0, 1, 3):
            _agree(_signed_permutation(rng, n, extra), n)


def test_empty_and_zero_matrices():
    _agree([], 0)
    for nrows, ncols in ((1, 0), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4)):
        _agree([[0] * ncols for _ in range(nrows)], ncols)


def test_no_stored_rows():
    """Zero rows need not be stored: with none at all every column is free,
    and the kernel vector is the first unit vector."""
    assert rank({}, ["a", "b"]) == 0
    assert kernel_vector({}, ["a", "b"]) == {"a": 1}
    assert kernel_vector({}, []) is None
    assert invert({}, []) == {}
    assert invert({}, ["a"]) is None


def test_unlisted_columns_are_ignored():
    rows = {"x": {"a": 1, "z": 5}, "y": {"b": 2}}
    assert invert(rows, ["a", "b"]) == {"a": {"x": 1}, "b": {"y": Fraction(1, 2)}}
    assert rank(rows, ["a"]) == 1
    assert kernel_vector(rows, ["b", "c"]) == {"c": 1}


def test_large_signed_permutation_inverse():
    """The canonical pairing omega_can(a, a*) = 1 inverts to its transpose,
    entry by entry, at a size where dense elimination would be slow."""
    rng = random.Random(7)
    n = 3000
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(n)]
    matrix = {i: {perm[i]: signs[i]} for i in range(n)}
    inv = invert(matrix, list(range(n)))
    assert inv == {perm[i]: {i: signs[i]} for i in range(n)}
    assert all(type(v) is int for row in inv.values() for v in row.values())
