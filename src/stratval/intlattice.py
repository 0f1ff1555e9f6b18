"""Exact integer linear algebra: Hermite normal form, solving, kernels.

Everything here works on small dense matrices of Python ints (rows of
lists); fraction-free and exact, which is all the lattice computations in
this package need.
"""

from __future__ import annotations


def hnf_basis(rows: list[list[int]]) -> list[list[int]]:
    """Nonzero rows of the row-style Hermite normal form: a canonical
    lattice basis."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [list(r) for r in rows]
    pivot_row = 0
    for col in range(n):
        # eliminate below pivot_row by gcd steps
        while True:
            nonzero = [i for i in range(pivot_row, m) if H[i][col] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(H[i][col]))
            if i0 != pivot_row:
                H[pivot_row], H[i0] = H[i0], H[pivot_row]
            done = True
            for i in range(pivot_row + 1, m):
                if H[i][col]:
                    q = H[i][col] // H[pivot_row][col]
                    for j in range(n):
                        H[i][j] -= q * H[pivot_row][j]
                    if H[i][col]:
                        done = False
            if done:
                break
        if pivot_row < m and H[pivot_row][col] != 0:
            if H[pivot_row][col] < 0:
                H[pivot_row] = [-x for x in H[pivot_row]]
            piv = H[pivot_row][col]
            for i in range(pivot_row):
                q = H[i][col] // piv
                if q:
                    for j in range(n):
                        H[i][j] -= q * H[pivot_row][j]
            pivot_row += 1
            if pivot_row == m:
                break
    return H[:pivot_row]


def hnf_with_transform(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form H of the matrix, with unimodular U so
    that U @ rows == H: the Hermite form of [rows | I], split.  Zero rows of
    H sink to the bottom."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    HU = hnf_basis(
        [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    )
    return [r[:n] for r in HU], [r[n:] for r in HU]


def solve_in_rowspace(basis: list[list[int]], v: list[int]) -> list[int] | None:
    """Integer coefficients expressing v in an echelon (HNF) basis, or None."""
    res = list(v)
    coeffs = [0] * len(basis)
    for i, row in enumerate(basis):
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        if res[lead] % row[lead] != 0:
            return None
        q = res[lead] // row[lead]
        coeffs[i] = q
        for j in range(len(res)):
            res[j] -= q * row[j]
    if any(res):
        return None
    return coeffs


def integer_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {x in Z^m : x @ rows == 0}."""
    H, U = hnf_with_transform(rows)
    return [U[i] for i in range(len(rows)) if not any(H[i])]

