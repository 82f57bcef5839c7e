"""Reduced-echelon nullspace computation over the prime field F_p.

Rows are lists of residues.  Elimination is fully deterministic: columns
are processed left to right and the first usable row becomes the pivot,
so the reduced echelon form, the pivot set and the kernel basis depend
only on the input order.

For p = 2 rows are packed into Python integers (one bit per column),
which makes the row operations word-parallel; the dense-list path covers
every other modulus.
"""

from __future__ import annotations


def nullspace(rows, ncols, p):
    """Kernel basis of the homogeneous system rows . x = 0 over F_p.

    Returns a list of basis vectors (tuples of length ncols), one per
    free column in ascending column order, extracted from the reduced
    echelon form in the standard way: the free coordinate is 1 and pivot
    coordinates are the negated reduced entries.
    """
    if p == 2:
        pivots, reduced = _rref_gf2(rows, ncols)
        entry = lambda r, c: (reduced[r] >> c) & 1
    else:
        pivots, reduced = _rref_modp(rows, ncols, p)
        entry = lambda r, c: reduced[r][c]
    pivot_cols = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-entry(r, free)) % p
        basis.append(tuple(vec))
    return basis


def row_reduce(rows, ncols, p):
    """Nonzero rows of the reduced row echelon form over F_p.

    Each returned row is a list of residues whose leading entry is 1 and
    which is 0 in the columns where the other rows lead.
    """
    if p == 2:
        _, packed = _rref_gf2(rows, ncols)
        return [[(r >> c) & 1 for c in range(ncols)] for r in packed]
    return _rref_modp(rows, ncols, p)[1]


def _rref_modp(rows, ncols, p):
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(inv * v) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                prow = mat[rank]
                mat[r] = [(v - factor * pv) % p for v, pv in zip(mat[r], prow)]
        pivots.append(col)
        rank += 1
    return pivots, mat[:rank]


def _rref_gf2(rows, ncols):
    packed = []
    for row in rows:
        acc = 0
        for c, v in enumerate(row):
            if v & 1:
                acc |= 1 << c
        packed.append(acc)
    pivots = []
    rank = 0
    for col in range(ncols):
        bit = 1 << col
        pivot_row = None
        for r in range(rank, len(packed)):
            if packed[r] & bit:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        packed[rank], packed[pivot_row] = packed[pivot_row], packed[rank]
        prow = packed[rank]
        for r in range(len(packed)):
            if r != rank and packed[r] & bit:
                packed[r] ^= prow
        pivots.append(col)
        rank += 1
    return pivots, packed[:rank]
