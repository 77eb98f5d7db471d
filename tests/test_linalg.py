import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import lcm

from crlie.linalg import (
    Matrix, Subspace, format_rat, format_terms, kernel, rat, read_row, rref, solve,
)

from oracles import (
    basis_vector, det_over_fractions, first_nonpositive_minor_over_fractions,
    format_rat_over_fractions, format_terms_over_fractions, from_columns, identity,
    intersect_over_fractions, is_zero, kernel_over_fractions, mat_add, matvec,
    reduce_over_fractions, rref_over_fractions, rows_of, scaled_sparse, solve_over_fractions,
    sparse, vector, zeros,
)
from strategies import fractions

rationals = fractions(-5, 5, max_denominator=4)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat(5) == Fraction(5)
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("abc")


MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300

digits = st.integers(0, 10 ** 6).map(str)
canonical = st.one_of(
    digits, digits.map(lambda p: "-" + p),
    st.tuples(st.sampled_from(["", "-"]), digits, st.integers(1, 10 ** 4)).map(
        lambda t: f"{t[0]}{t[1]}/{t[2]}"),
    st.sampled_from(["-0", "3/06", "0/5", "-0/7", "007"]))
spelled = st.one_of(
    st.sampled_from(["1/0", "0/0", "+3", " 2 ", "1.5", "1e2", "1_000", "-", "", "1/", "/2",
                     "--1", "12/-4", "\u0663", "1\u0662", "\u00b2", "\uff11", "1/\u0663", "x"]),
    st.sampled_from(["1" * (MAX_DIGITS + 1), "-" + "2" * (MAX_DIGITS + 1),
                     "1/" + "3" * (MAX_DIGITS + 1), "9" * MAX_DIGITS]),
    st.integers(-10 ** 30, 10 ** 30), st.booleans(), st.floats(allow_nan=False),
    st.none(), st.fractions(max_denominator=12))


def outcome(f, entries):
    try:
        return f(entries)
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(canonical, canonical, spelled), max_size=8))
def test_read_row_matches_fraction_oracle(entries):
    """read_row reads every entry list as `vector` and `scaled_sparse` do,
    or fails with the same exception and message."""
    def oracle(es):
        s, (ints,) = scaled_sparse([vector(es)])
        return s, ints
    assert outcome(read_row, entries) == outcome(oracle, entries)


@pytest.mark.parametrize("text", ["", "001", "1/2"])
def test_read_row_refuses_a_string(text):
    # a string is a sequence of characters, never a list of rationals
    with pytest.raises(TypeError, match="not the string"):
        read_row(text)


def test_format_rat():
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-6, 3)) == "-2"
    assert format_rat(-6, 4) == "-3/2"
    assert format_rat(0, 7) == "0"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60).flatmap(lambda s: st.tuples(st.just(s), st.lists(st.one_of(
    st.sampled_from([0, s, -s, 2 * s, -3 * s]), st.integers(-200, 200),
    fractions(-50, 50, max_denominator=12)), max_size=6))))
def test_formatters_match_fraction_oracle(scale_coeffs):
    """format_rat and format_terms on integer coefficients (0, +-scale and
    negatives among them) and on `Fraction` ones print what the former
    `Fraction` formatters printed."""
    scale, coeffs = scale_coeffs
    for q in coeffs:
        assert format_rat(q, scale) == format_rat_over_fractions(q, scale)
    terms = [(q, f"e{i + 1}") for i, q in enumerate(coeffs)]
    assert format_terms(terms, scale) == format_terms_over_fractions(terms, scale)


@given(rationals, rationals, rationals)
def test_rational_field_identities_exact(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- solve -------------------------------------------------------------------

def test_solve_identity():
    A = identity(2)
    assert solve(A, vector(["3", "1/2"])) == vector(["3", "1/2"])


def test_solve_inconsistent():
    A = Matrix([[1, 1], [2, 2]])
    assert solve(A, vector([1, 3])) is None


def test_solve_free_variables_zero():
    A = Matrix([[1, 1]])
    assert solve(A, vector([5])) == vector([5, 0])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(2), vector([1, 2, 3]))


# -- kernel ------------------------------------------------------------------

def test_kernel_identity_is_zero():
    assert kernel(identity(3)).dim == 0


def test_kernel_zero_matrix_is_full():
    assert kernel(zeros(2, 2)) == Subspace.from_ints(2, [{0: 1}, {1: 1}])


def test_kernel_hand_checkable():
    k = kernel(Matrix([[1, -1]]))
    assert k == Subspace.span([[1, 1]], 2)


def test_kernel_vectors_annihilate_exactly():
    A = Matrix([[2, 1, -1], [4, 2, -2], [0, 1, 3]])
    k = kernel(A)
    for v in k.basis:
        assert is_zero(matvec(A, v))


# -- subspace operations -----------------------------------------------------

def test_contains():
    s = Subspace.span([basis_vector(3, 0)], 3)
    assert s.contains({0: 1})
    assert not s.contains({1: 1})


def test_intersect():
    s = Subspace.span([basis_vector(3, 0), basis_vector(3, 1)], 3)
    t = Subspace.span([basis_vector(3, 1), basis_vector(3, 2)], 3)
    assert s.intersect(t) == Subspace.span([basis_vector(3, 1)], 3)


def test_dimension_mismatch_reported():
    s = Subspace.span([basis_vector(3, 0)], 3)
    t = Subspace.span([basis_vector(2, 0)], 2)
    with pytest.raises(ValueError):
        s.intersect(t)
    with pytest.raises(ValueError):
        s.contains({3: 1})


small_vectors = st.lists(
    st.lists(rationals, min_size=3, max_size=3), min_size=0, max_size=3)


@settings(max_examples=50, deadline=None)
@given(small_vectors, small_vectors)
def test_dimension_formula(vs, ws):
    s = Subspace.span(vs, 3)
    t = Subspace.span(ws, 3)
    assert s.dim + t.dim == s.intersect(t).dim + Subspace.span(vs + ws, 3).dim


@settings(max_examples=50, deadline=None)
@given(small_vectors)
def test_span_idempotent(vs):
    s = Subspace.span(vs, 3)
    assert Subspace.span(s.basis, 3) == s


def test_matrix_det_and_ops():
    m = Matrix([["1", "2"], ["3", "4"]])
    assert m.det() == -2
    assert m.transpose() == Matrix([[1, 3], [2, 4]])
    assert (m * identity(2)) == m


def test_matrix_without_rows_is_empty_square():
    m = from_columns([])
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
    return mat_add(A.transpose() * D * A, identity(n, t))


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_first_nonpositive_minor_matches_one_det_per_minor(m):
    assert m.first_nonpositive_minor() == first_nonpositive_minor_over_fractions(m)


# -- the fraction-free elimination against the `Fraction` oracles --------------

@st.composite
def matrices(draw, square=False):
    """Rational matrices with denominators, of any shape from 0 x n and
    n x 0 up to 5 x 5: some rows copied or combined from others (rank
    deficiency), some zero, and some columns zero."""
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 5))
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "combination" and data:
            a, b = draw(rationals), draw(rationals)
            i, j = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, len(data) - 1))
            data.append([a * x + b * y for x, y in zip(data[i], data[j])])
        elif kind == "zero":
            data.append([Fraction(0)] * cols)
        else:
            data.append([draw(st.sampled_from([Fraction(0), draw(rationals)]))
                         for _ in range(cols)])
    return Matrix.from_ints(cols, 1, []) if not data else Matrix(data)


def fractions_of(s, R, cols):
    return [tuple(Fraction(r.get(k, 0), s) for k in range(cols)) for r in R]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_fraction_oracle(A):
    s, R, pivots = rref(A.ints, A.cols)
    rows, want_pivots = rref_over_fractions(rows_of(A))
    assert (fractions_of(s, R, A.cols), pivots) == (rows, want_pivots)
    assert s == lcm(*(e.denominator for r in rows for e in r))


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_kernel_and_solve_match_fraction_oracles(A, data):
    K = kernel(A)
    assert (list(K.basis), list(K.pivots)) == kernel_over_fractions(rows_of(A), A.cols)
    # a consistent right side (A times a vector) and an arbitrary one
    x = vector(data.draw(st.lists(rationals, min_size=A.cols, max_size=A.cols)))
    for b in (matvec(A, x), vector(data.draw(st.lists(rationals, min_size=A.rows,
                                                      max_size=A.rows)))):
        assert solve(A, b) == solve_over_fractions(rows_of(A), b, A.cols)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_matches_fraction_oracle(A):
    assert A.det() == det_over_fractions(rows_of(A))


def test_empty_shapes():
    zero_by_three, three_by_zero = Matrix.from_ints(3, 1, []), Matrix([[], [], []])
    assert (zero_by_three.rows, zero_by_three.cols) == (0, 3)
    assert (three_by_zero.rows, three_by_zero.cols) == (3, 0)
    assert kernel(zero_by_three) == Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}])
    assert kernel(three_by_zero) == Subspace.from_ints(0, [])
    assert solve(zero_by_three, ()) == (0, 0, 0)
    assert solve(three_by_zero, (0, 0, 0)) == ()
    assert solve(three_by_zero, (0, 1, 0)) is None
    assert zero_by_three.transpose() == three_by_zero
    assert (three_by_zero * zero_by_three) == zeros(3, 3)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=4),
    st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=4),
    st.lists(rationals, min_size=n, max_size=n))))
def test_subspace_operations_match_fraction_oracles(case):
    n, vs, ws, v = case
    S, T = Subspace.span(vs, n), Subspace.span(ws, n)
    span = rref_over_fractions(vs)
    for got, want in [(S, span), (S.intersect(T), intersect_over_fractions(vs, ws, n))]:
        assert (list(got.basis), list(got.pivots)) == want
    # the sparse remainder and the `Fraction` one
    assert S.reduce(sparse(v)) == sparse(S.scale * x for x in reduce_over_fractions(span, v))
    assert S.contains(sparse(v)) == is_zero(reduce_over_fractions(span, v))
