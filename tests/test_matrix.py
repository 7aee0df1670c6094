import random
import re

import pytest

from stripemerge.field import field_create
from stripemerge.matrix import MatQ, rank_of_rows, vandermonde


def elems(F, *encs):
    return [F.element(e) for e in encs]


def identity(F, n):
    return MatQ(F, [[int(i == j) for j in range(n)] for i in range(n)])


def test_rref_identity_and_zero():
    F = field_create(5, 1)
    eye = identity(F, 4)
    R, rank, pivots = eye.rref()
    assert rank == 4 and R == eye and pivots == (0, 1, 2, 3)
    Z = MatQ(F, [[0] * 4 for _ in range(3)])
    assert Z.rref()[1] == 0


def test_entries_must_be_int_encodings():
    # a float or a bool is refused by name, not truncated or coerced to an int
    F = field_create(7, 1)
    for bad in (2.7, True, False, 3.0, "3", None):
        with pytest.raises(ValueError, match=re.escape(f"entry {bad!r} is not an encoding")):
            MatQ(F, [[1, 2], [bad, 1]])
    with pytest.raises(ValueError, match="entry 7 out of range for GF"):
        MatQ(F, [[1, 7]])
    with pytest.raises(ValueError, match="ragged"):
        MatQ(F, [[1, 2], [3]])
    assert MatQ(F, [(2, 1), [0, 6]]).data == [[2, 1], [0, 6]]


def test_rref_vandermonde_rank():
    F = field_create(5, 1)
    V = vandermonde(F, 2, elems(F, 1, 2, 3))
    assert V.rank() == 2


def test_invert_identity_and_random():
    F = field_create(7, 1)
    eye = identity(F, 3)
    assert eye.invert() == eye
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 6)
        A = MatQ(F, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
        if A.rank() < n:
            with pytest.raises(ValueError):
                A.invert()
            continue
        assert A.invert() @ A == identity(F, n)
        assert A @ A.invert() == identity(F, n)


def test_kernel_examples():
    F2 = field_create(2, 1)
    assert MatQ(F2, [[1, 1]]).kernel() == [[1, 1]]
    F5 = field_create(5, 1)
    V = vandermonde(F5, 2, elems(F5, 1, 2, 3))
    assert V.kernel() == [[1, 3, 1]]  # v1 + v2 + v3 = 0, v1 + 2v2 + 3v3 = 0


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    F = field_create(23, 1)
    for _ in range(50):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 7)
        A = MatQ(F, [[rng.randrange(23) for _ in range(cols)] for _ in range(rows)])
        for vec in A.kernel():
            prod = A @ MatQ(F, [[v] for v in vec])
            assert prod.is_zero()
        assert len(A.kernel()) == cols - A.rank()


def test_solve():
    F = field_create(5, 1)
    A = MatQ(F, [[1, 1], [1, 2]])
    x = A.solve([3, 4])
    assert x is not None
    assert (A @ MatQ(F, [[v] for v in x])).to_obj() == [[3], [4]]
    inconsistent = MatQ(F, [[1, 1], [2, 2]])
    assert inconsistent.solve([1, 3]) is None
    with pytest.raises(ValueError):
        A.solve([1, 2, 3])


def test_vandermonde_entries():
    F = field_create(5, 1)
    V = vandermonde(F, 2, elems(F, 1, 2), elems(F, 2, 3))
    assert V.to_obj() == [[2, 3], [2, 1]]  # row i: v_j * a_j^i
    ones = vandermonde(F, 1, elems(F, 0, 1, 2, 3))
    assert ones.to_obj() == [[1, 1, 1, 1]]
    F7 = field_create(7, 1)
    V3 = vandermonde(F7, 3, elems(F7, 1, 2, 3))
    assert V3.rank() == 3


def test_vandermonde_errors():
    F = field_create(5, 1)
    with pytest.raises(ValueError):
        vandermonde(F, 2, elems(F, 1, 1))
    with pytest.raises(ValueError):
        vandermonde(F, 2, elems(F, 1, 2), elems(F, 0, 3))
    with pytest.raises(ValueError):
        vandermonde(F, 0, elems(F, 1))


def test_vandermonde_rank_property():
    for q in (5, 7, 23):
        F = field_create(q, 1)
        rng = random.Random(q)
        for k in range(1, 7):
            for n in range(1, min(9, q + 1)):
                locs = rng.sample(range(q), n)
                V = vandermonde(F, k, elems(F, *locs))
                assert V.rank() == min(k, n)


def test_matmul_shape_and_field_errors():
    F = field_create(5, 1)
    G = field_create(7, 1)
    A = MatQ(F, [[1, 2]])
    with pytest.raises(ValueError):
        A @ MatQ(F, [[1, 2]])
    with pytest.raises(ValueError):
        A @ MatQ(G, [[1], [2]])


def test_rank_of_rows_matches_matrix_rank():
    F = field_create(2, 3)
    rng = random.Random(3)
    for _ in range(40):
        rows = [[rng.randrange(8) for _ in range(5)] for _ in range(rng.randrange(1, 6))]
        assert rank_of_rows(F, rows) == MatQ(F, rows).rank()


def ref_rref(F, data):
    """Gauss-Jordan elimination with one sub_enc(mul_enc(...)) per entry,
    the row update the table kernel replaced."""
    m = [list(row) for row in data]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    prow = 0
    for col in range(cols):
        sel = next((r for r in range(prow, rows) if m[r][col]), None)
        if sel is None:
            continue
        m[prow], m[sel] = m[sel], m[prow]
        inv = F.inv_enc(m[prow][col])
        m[prow] = [F.mul_enc(inv, e) for e in m[prow]]
        for r in range(rows):
            if r != prow and m[r][col]:
                factor = m[r][col]
                m[r] = [F.sub_enc(e, F.mul_enc(factor, s)) for e, s in zip(m[r], m[prow])]
        pivots.append(col)
        prow += 1
        if prow == rows:
            break
    return m, pivots


def ref_kernel(F, data, cols):
    R, pivots = ref_rref(F, data)
    basis = []
    for fc in (j for j in range(cols) if j not in pivots):
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = F.neg_enc(R[i][fc])
        basis.append(vec)
    return basis


def random_matrix(F, rng):
    """A random matrix, wide, tall or square, often rank-deficient: some
    rows are combinations of others and some entries are forced to 0."""
    rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
    data = [[rng.randrange(F.q) if rng.random() < 0.7 else 0 for _ in range(cols)]
            for _ in range(rows)]
    for i in range(1, rows):
        if rng.random() < 0.3:
            a, b = rng.randrange(F.q), rng.randrange(F.q)
            j = rng.randrange(i)
            data[i] = [F.add_enc(F.mul_enc(a, x), F.mul_enc(b, y))
                       for x, y in zip(data[j], data[rng.randrange(i)])]
    return data


@pytest.mark.parametrize("p,s", [(2, 1), (23, 1), (2, 5), (3, 2), (7, 2)],
                         ids=["GF(2)", "GF(23)", "GF(32)", "GF(9)", "GF(49)"])
def test_elimination_matches_the_reference(p, s):
    F = field_create(p, s)
    rng = random.Random(p * 31 + s)
    shapes, ranks = set(), set()
    for _ in range(40):
        data = random_matrix(F, rng)
        A = MatQ(F, data)
        R, rank, pivots = A.rref()
        want, want_pivots = ref_rref(F, data)
        assert (R.data, rank, list(pivots)) == (want, len(want_pivots), want_pivots)
        assert rank_of_rows(F, data) == rank
        assert A.kernel() == ref_kernel(F, data, A.cols)
        shapes.add((A.rows > A.cols) - (A.rows < A.cols))
        ranks.add(rank < min(A.rows, A.cols))
        b = [rng.randrange(F.q) for _ in range(A.rows)]
        aug, aug_pivots = ref_rref(F, [row + [b[i]] for i, row in enumerate(data)])
        if A.cols in aug_pivots:
            assert A.solve(b) is None
        else:
            x = [0] * A.cols
            for i, pc in enumerate(aug_pivots):
                x[pc] = aug[i][A.cols]
            assert A.solve(b) == x
        if A.rows == A.cols:
            n = A.rows
            ref, ref_pivots = ref_rref(F, [row + [int(i == j) for j in range(n)]
                                           for i, row in enumerate(data)])
            if len(ref_pivots) == n and ref_pivots[-1] < n:
                assert A.invert().data == [row[n:] for row in ref]
            else:
                with pytest.raises(ValueError, match="singular"):
                    A.invert()
    assert shapes == {-1, 0, 1} and ranks == {False, True}
