"""Reduced-echelon nullspace computation over the prime field F_p.

Rows are lists of residues.  Elimination is fully deterministic: columns
are processed left to right and the first usable row becomes the pivot,
so the reduced echelon form, the pivot set and the kernel basis depend
only on the input order.
"""

from __future__ import annotations


def nullspace(rows, ncols, p):
    """Kernel basis of the homogeneous system rows . x = 0 over F_p.

    Returns a list of basis vectors (tuples of length ncols), one per
    free column in ascending column order, extracted from the reduced
    echelon form in the standard way: the free coordinate is 1 and pivot
    coordinates are the negated reduced entries.
    """
    pivots, reduced = _rref_modp(rows, ncols, p)
    pivot_cols = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-reduced[r][free]) % p
        basis.append(tuple(vec))
    return basis


def row_reduce(rows, ncols, p):
    """Nonzero rows of the reduced row echelon form over F_p.

    Each returned row is a list of residues whose leading entry is 1 and
    which is 0 in the columns where the other rows lead.
    """
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
