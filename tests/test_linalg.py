import random

import pytest

from mixbound.linalg import nullspace, row_reduce


def random_rows(rng, nrows, ncols, p, density=0.5):
    return [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def dot(row, vec, p):
    return sum(a * b for a, b in zip(row, vec)) % p


def random_systems(p, count=60):
    rng = random.Random(1000 + p)
    for _ in range(count):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
        rows = random_rows(rng, nrows, ncols, p, rng.choice([0.2, 0.5, 0.9]))
        # duplicate and zero rows exercise rank deficiency
        if rows and rng.random() < 0.5:
            rows.append(list(rng.choice(rows)))
        if rng.random() < 0.3:
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        yield rows, ncols


@pytest.mark.parametrize("p", [2, 3, 5])
class TestRandomSystems:
    def test_basis_vectors_are_in_the_kernel(self, p):
        for rows, ncols in random_systems(p):
            for vec in nullspace(rows, ncols, p):
                assert len(vec) == ncols
                assert all(dot(row, vec, p) == 0 for row in rows)

    def test_kernel_dimension_is_ncols_minus_rank(self, p):
        for rows, ncols in random_systems(p):
            basis = nullspace(rows, ncols, p)
            rank = len(row_reduce(rows, ncols, p))
            assert len(basis) == ncols - rank
            # the basis is independent: the free coordinates form an identity
            assert len(row_reduce(basis, ncols, p)) == len(basis)

    def test_reduced_form(self, p):
        for rows, ncols in random_systems(p):
            reduced = row_reduce(rows, ncols, p)
            leads = []
            for row in reduced:
                assert len(row) == ncols
                assert all(0 <= v < p for v in row)
                lead = next(c for c, v in enumerate(row) if v)
                assert row[lead] == 1
                leads.append(lead)
            assert leads == sorted(set(leads))
            for row, lead in zip(reduced, leads):
                for other in leads:
                    if other != lead:
                        assert row[other] == 0
            # same row space: every input row is orthogonal to the kernel
            for vec in nullspace(reduced, ncols, p):
                assert all(dot(row, vec, p) == 0 for row in rows)

    def test_zero_rows(self, p):
        assert row_reduce([[0, 0, 0], [0, 0, 0]], 3, p) == []
        assert nullspace([[0, 0, 0]], 3, p) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_empty_system(self, p):
        assert row_reduce([], 2, p) == []
        assert nullspace([], 2, p) == [(1, 0), (0, 1)]
        assert nullspace([], 0, p) == []
        assert nullspace([[]], 0, p) == []

    def test_entries_are_reduced_mod_p(self, p):
        rows = [[p + 1, 2 * p], [0, p - 1]]
        assert row_reduce(rows, 2, p) == [[1, 0], [0, 1]]
        assert nullspace(rows, 2, p) == []


def test_basis_order_and_signs():
    # x0 + 2 x2 = 0, x1 + x2 = 0 over F_5: free column 2
    assert nullspace([[1, 0, 2], [0, 1, 1]], 3, 5) == [(3, 4, 1)]


# The system of combination_solve(1+u1+u2+u2^2 over F_2, [(0, 0), (2, 1)], 1):
# one row per normal-form key, one column per (i, w) with w in [-1, 1]^2.
RECORDED_ROWS = [
    "000000000000000001",
    "000000000000000011",
    "000000000000001101",
    "000000000000010101",
    "000000000001110000",
    "100100101011000000",
    "010110000000000000",
    "011000000000000000",
    "000000000000000001",
    "000000000000000010",
    "000000000000001111",
    "000000000000011010",
    "000000000001101011",
    "000000001010101000",
    "000000011110000000",
    "100101000000000000",
    "110000000000000000",
]
RECORDED_BASIS = [
    "111100000000000000",
    "111011100000000000",
    "000000010100000000",
    "000000001010000000",
    "000000011001100000",
    "000000011001011100",
]


def _bits(lines):
    return [[int(ch) for ch in line] for line in lines]


def test_recorded_gf2_system():
    rows = _bits(RECORDED_ROWS)
    assert nullspace(rows, 18, 2) == [tuple(v) for v in _bits(RECORDED_BASIS)]
    assert len(row_reduce(rows, 18, 2)) == 12
