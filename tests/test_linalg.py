from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (reference_echelon_basis, reference_invert,
                     reference_rank_kernel, reference_solve)

from hopfcat.linalg import (LinMap, NotInvertible, echelon_basis, invert,
                            rank, rank_kernel, solve, swap_map)
from hopfcat.scalars import GF, QQ, FieldMismatchError, FpElement


def qmat(rows):
    return LinMap(QQ, len(rows), len(rows[0]) if rows else 0,
                  [[Fraction(v) for v in r] for r in rows])


# -- frozen hand-worked cases ------------------------------------------------------

def test_rank_kernel_identity():
    r, basis = rank_kernel(LinMap.identity(QQ, 3))
    assert r == 3 and basis == []


def test_rank_kernel_zero_map():
    r, basis = rank_kernel(qmat([[0, 0, 0], [0, 0, 0]]))
    assert r == 0
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_rank_kernel_rank_one():
    # rows (1,2) and (2,4): kernel spanned by (-2,1), echelon-normalized
    r, basis = rank_kernel(qmat([[1, 2], [2, 4]]))
    assert r == 1
    assert basis == [(Fraction(1), Fraction(-1, 2))]


def test_invert_identity_and_involution():
    assert invert(LinMap.identity(QQ, 4)) == LinMap.identity(QQ, 4)
    s = qmat([[0, 1], [1, 0]])
    assert invert(s) == s


def test_invert_unipotent():
    assert invert(qmat([[1, 1], [0, 1]])) == qmat([[1, -1], [0, 1]])


def test_invert_failures_carry_rank():
    out = invert(qmat([[1, 2], [2, 4]]))
    assert isinstance(out, NotInvertible) and out.rank == 1
    out = invert(qmat([[0, 0, 0], [0, 0, 0]]))
    assert isinstance(out, NotInvertible)


def test_kron_frozen():
    assert LinMap.identity(QQ, 2).kron(LinMap.identity(QQ, 3)) \
        == LinMap.identity(QQ, 6)
    f = qmat([[1, 2], [3, 4]])
    assert f.kron(LinMap.identity(QQ, 1)) == f
    assert qmat([[2]]).kron(qmat([[3]])) == qmat([[6]])


def test_kron_indexing_convention():
    # leftmost factor slowest: (f⊗g)[(i,k),(j,l)] = f[i,j] g[k,l]
    f = qmat([[1, 2], [3, 4]])
    g = qmat([[5, 6], [7, 8]])
    fg = f.kron(g)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert fg.entries[i * 2 + k][j * 2 + l] \
                        == f.entries[i][j] * g.entries[k][l]


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        LinMap.identity(QQ, 2) @ LinMap.identity(GF(5), 2)
    with pytest.raises(FieldMismatchError):
        LinMap.identity(QQ, 2).kron(LinMap.identity(GF(5), 2))


def test_compose_needs_matching_inner_dims():
    with pytest.raises(ValueError):
        LinMap.identity(QQ, 2) @ LinMap.identity(QQ, 3)


def test_swap_map_is_flip():
    s = swap_map(QQ, 2, 3)
    for i in range(2):
        for k in range(3):
            col = s.col(i * 3 + k)
            assert col[k * 2 + i] == 1
            assert sum(1 for v in col if v) == 1
    assert swap_map(QQ, 3, 2) @ s == LinMap.identity(QQ, 6)


def test_solve_exact_and_inconsistent():
    a = qmat([[1, 0], [0, 1], [1, 1]])
    b = qmat([[1], [2], [3]])
    x = solve(a, b)
    assert x is not None and a @ x == b
    assert solve(a, qmat([[1], [2], [4]])) is None


# -- hypothesis properties ---------------------------------------------------------

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=4)
FIELDS = [QQ, GF(2), GF(5), GF(2**61 - 1)]


def matrices(field, rows, cols):
    if field is QQ:
        elem = small_fraction
    else:
        # small values give zeros and dependent rows; anything below p
        # gives entries whose products and sums wrap around p
        elem = (st.integers(min_value=0, max_value=4)
                | st.integers(min_value=0, max_value=field.p - 1)
                ).map(field.of)
    return st.lists(st.lists(elem, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows) \
        .map(lambda e: LinMap(field, rows, cols, e))


def square_matrices(max_n=3):
    return st.tuples(st.sampled_from(FIELDS),
                     st.integers(min_value=0, max_value=max_n)).flatmap(
        lambda fn: matrices(fn[0], fn[1], fn[1]))


def shaped_matrices(max_rows=4, max_cols=4):
    return st.tuples(st.sampled_from(FIELDS),
                     st.integers(min_value=0, max_value=max_rows),
                     st.integers(min_value=0, max_value=max_cols)).flatmap(
        lambda frc: matrices(*frc))


@settings(max_examples=80)
@given(square_matrices())
def test_invert_iff_full_rank(f):
    out = invert(f)
    if isinstance(out, NotInvertible):
        assert rank(f) < f.rows
    else:
        assert rank(f) == f.rows
        assert f @ out == LinMap.identity(f.field, f.rows)
        assert out @ f == LinMap.identity(f.field, f.rows)


@settings(max_examples=40)
@given(matrices(QQ, 2, 2), matrices(QQ, 2, 2), matrices(GF(5), 2, 3),
       matrices(GF(5), 3, 2))
def test_mixed_product_identity(f, fp, g, gp):
    # over each field separately: (f∘f')⊗(g∘g') = (f⊗g)∘(f'⊗g')
    assert (f @ fp).kron(f @ fp) == f.kron(f) @ fp.kron(fp)
    assert (g @ gp).kron(g @ gp) == g.kron(g) @ gp.kron(gp)


@settings(max_examples=40)
@given(matrices(QQ, 2, 1), matrices(QQ, 1, 2), matrices(QQ, 2, 2))
def test_kron_associative_on_entries(a, b, c):
    assert a.kron(b).kron(c) == a.kron(b.kron(c))


@settings(max_examples=80)
@given(shaped_matrices(3, 3))
def test_rank_kernel_exactness(f):
    r, basis = rank_kernel(f)
    assert r + len(basis) == f.cols
    for v in basis:
        assert (f @ LinMap.column(f.field, v)).is_zero()
    # canonical: echelon, leading ones at increasing positions
    leads = []
    for v in basis:
        nz = [i for i, c in enumerate(v) if c]
        assert v[nz[0]] == 1
        leads.append(nz[0])
    assert leads == sorted(leads)


# -- row reduction on raw scalars against the one on public scalars ------------

def public(field, value) -> bool:
    """Whether a scalar is in the public form of its field."""
    if field is QQ:
        return isinstance(value, Fraction)
    return isinstance(value, FpElement) and value.p == field.p


@settings(max_examples=150, deadline=None)
@given(shaped_matrices())
def test_rank_kernel_and_echelon_basis_match_the_reference(f):
    r, basis = rank_kernel(f)
    assert (r, basis) == reference_rank_kernel(f)
    rows = echelon_basis(f.field, f.entries)
    assert rows == reference_echelon_basis(f.field, f.entries)
    assert all(public(f.field, v) for vec in basis + rows for v in vec)


@settings(max_examples=150, deadline=None)
@given(shaped_matrices(4, 5))
@example(LinMap(QQ, 0, 3, []))
@example(LinMap(GF(5), 2, 0, [[], []]))
@example(LinMap(GF(2), 0, 0, []))
def test_rank_matches_the_reference(f):
    assert rank(f) == reference_rank_kernel(f)[0]


@settings(max_examples=150, deadline=None)
@given(square_matrices(4))
def test_invert_matches_the_reference(f):
    out = invert(f)
    assert out == reference_invert(f)
    if isinstance(out, LinMap):
        assert all(public(f.field, v) for row in out.entries for v in row)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_matches_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    r, c, k = (data.draw(st.integers(min_value=0, max_value=n))
               for n in (4, 3, 2))
    a = data.draw(matrices(field, r, c))
    if data.draw(st.booleans()):
        b = a @ data.draw(matrices(field, c, k))   # consistent
    else:
        b = data.draw(matrices(field, r, k))
    out = solve(a, b)
    assert out == reference_solve(a, b)
    if out is not None:
        assert a @ out == b
        assert all(public(field, v) for row in out.entries for v in row)
