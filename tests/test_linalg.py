from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlie.linalg import (
    Matrix, Subspace, basis_vector, format_rat, is_zero, kernel, rat, solve, vector,
)

from oracles import first_nonpositive_minor_over_fractions

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat(5) == Fraction(5)
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("abc")


def test_format_rat():
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-6, 3)) == "-2"


@given(rationals, rationals, rationals)
def test_rational_field_identities_exact(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- solve -------------------------------------------------------------------

def test_solve_identity():
    A = Matrix.identity(2)
    assert solve(A, vector(["3", "1/2"])) == vector(["3", "1/2"])


def test_solve_inconsistent():
    A = Matrix([[1, 1], [2, 2]])
    assert solve(A, vector([1, 3])) is None


def test_solve_free_variables_zero():
    A = Matrix([[1, 1]])
    assert solve(A, vector([5])) == vector([5, 0])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(Matrix.identity(2), vector([1, 2, 3]))


# -- kernel ------------------------------------------------------------------

def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)).dim == 0


def test_kernel_zero_matrix_is_full():
    assert kernel(Matrix.zeros(2, 2)) == Subspace.full(2)


def test_kernel_hand_checkable():
    k = kernel(Matrix([[1, -1]]))
    assert k == Subspace.span([[1, 1]], 2)


def test_kernel_vectors_annihilate_exactly():
    A = Matrix([[2, 1, -1], [4, 2, -2], [0, 1, 3]])
    k = kernel(A)
    for v in k.basis:
        assert is_zero(A.matvec(v))


# -- subspace operations -----------------------------------------------------

def test_contains():
    s = Subspace.span([basis_vector(3, 0)], 3)
    assert s.contains(basis_vector(3, 0))
    assert not s.contains(basis_vector(3, 1))


def test_intersect():
    s = Subspace.span([basis_vector(3, 0), basis_vector(3, 1)], 3)
    t = Subspace.span([basis_vector(3, 1), basis_vector(3, 2)], 3)
    assert s.intersect(t) == Subspace.span([basis_vector(3, 1)], 3)


def test_complement_non_pivot_convention():
    s = Subspace.span([basis_vector(3, 0)], 3)
    assert s.complement() == Subspace.span([basis_vector(3, 1), basis_vector(3, 2)], 3)


def test_dimension_mismatch_reported():
    s = Subspace.span([basis_vector(3, 0)], 3)
    t = Subspace.span([basis_vector(2, 0)], 2)
    with pytest.raises(ValueError):
        s.intersect(t)
    with pytest.raises(ValueError):
        s.contains(vector([1, 0]))


small_vectors = st.lists(
    st.lists(rationals, min_size=3, max_size=3), min_size=0, max_size=3)


@settings(max_examples=50, deadline=None)
@given(small_vectors, small_vectors)
def test_dimension_formula(vs, ws):
    s = Subspace.span(vs, 3)
    t = Subspace.span(ws, 3)
    assert s.dim + t.dim == s.intersect(t).dim + s.sum(t).dim


@settings(max_examples=50, deadline=None)
@given(small_vectors)
def test_span_idempotent(vs):
    s = Subspace.span(vs, 3)
    assert Subspace.span(s.basis, 3) == s


@settings(max_examples=50, deadline=None)
@given(small_vectors)
def test_complement_is_complementary(vs):
    s = Subspace.span(vs, 3)
    c = s.complement()
    assert s.dim + c.dim == 3
    assert s.intersect(c).dim == 0


def test_matrix_det_and_ops():
    m = Matrix([["1", "2"], ["3", "4"]])
    assert m.det() == -2
    assert m.transpose() == Matrix([[1, 3], [2, 4]])
    assert (m * Matrix.identity(2)) == m
    assert m.trace() == 5


def test_matrix_without_rows_is_empty_square():
    m = Matrix.from_columns([])
    assert (m.rows, m.cols) == (0, 0)
    assert m.det() == 1
    assert m.first_nonpositive_minor() is None


@st.composite
def symmetric_matrices(draw):
    """A^T D A + t I for a rational k x n matrix A, D = diag of signs and
    t in {0, 1/2, -1}: positive semidefinite and singular when D = I, t = 0
    and k < n, indefinite for most sign choices, and of any definiteness
    after the shift."""
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=n))
    A = Matrix([[draw(rationals) for _ in range(n)] for _ in range(k)])
    D = Matrix([[draw(st.sampled_from([1, 1, -1])) if r == c else 0 for c in range(k)]
                for r in range(k)])
    t = draw(st.sampled_from([0, 0, Fraction(1, 2), -1]))
    return A.transpose() * D * A + Matrix.identity(n).scale(t)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_first_nonpositive_minor_matches_one_det_per_minor(m):
    assert m.first_nonpositive_minor() == first_nonpositive_minor_over_fractions(m)
