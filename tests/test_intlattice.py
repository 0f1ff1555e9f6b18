from hypothesis import given
from hypothesis import strategies as st

from chain_oracles import _det, hnf_tracking_transform
from stratval.intlattice import (
    hnf_basis,
    hnf_with_transform,
    integer_kernel,
    solve_in_rowspace,
)

matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@given(matrices)
def test_hnf_transform_is_exact(rows):
    H, U = hnf_with_transform(rows)
    m, n = len(rows), len(rows[0])
    for i in range(m):
        for j in range(n):
            assert H[i][j] == sum(U[i][k] * rows[k][j] for k in range(m))
    # unimodularity is checked in test_hnf_matches_the_tracking_elimination
    assert len(H) == m


@st.composite
def wide_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


@given(wide_matrices())
def test_hnf_matches_the_tracking_elimination(rows):
    """The basis is the nonzero part of the Hermite form that row operations
    on H and U reach, H from [rows | I] is that form in full, and U has
    determinant +-1."""
    H_oracle, _ = hnf_tracking_transform(rows)
    H, U = hnf_with_transform(rows)
    assert hnf_basis(rows) == [r for r in H_oracle if any(r)]
    assert H == H_oracle
    assert abs(_det(U)) == 1


@given(matrices)
def test_hnf_spans_the_same_lattice(rows):
    basis = hnf_basis(rows)
    # every original row lies in the HNF span
    for row in rows:
        assert solve_in_rowspace(basis, row) is not None
    # and conversely
    original_hnf = hnf_basis(rows)
    for row in basis:
        assert solve_in_rowspace(original_hnf, row) is not None


@given(matrices)
def test_hnf_idempotent(rows):
    basis = hnf_basis(rows)
    if basis:
        assert hnf_basis(basis) == basis


@given(matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_solve_round_trip(rows, coeffs):
    basis = hnf_basis(rows)
    if not basis:
        return
    coeffs = (coeffs * len(basis))[: len(basis)]
    vec = [
        sum(c * row[j] for c, row in zip(coeffs, basis))
        for j in range(len(basis[0]))
    ]
    got = solve_in_rowspace(basis, vec)
    assert got is not None
    rebuilt = [
        sum(c * row[j] for c, row in zip(got, basis))
        for j in range(len(basis[0]))
    ]
    assert rebuilt == vec


@given(matrices)
def test_integer_kernel_annihilates(rows):
    kernel = integer_kernel(rows)
    m = len(rows)
    n = len(rows[0])
    for combo in kernel:
        assert len(combo) == m
        for j in range(n):
            assert sum(combo[k] * rows[k][j] for k in range(m)) == 0


def test_solve_detects_non_members():
    basis = hnf_basis([[2, 0], [0, 3]])
    assert solve_in_rowspace(basis, [1, 0]) is None
    assert solve_in_rowspace(basis, [2, 3]) == [1, 1]
