import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import lcm

from crlie import linalg
from crlie.linalg import (
    Matrix, Subspace, _perp, format_rat, format_terms, kernel, rat, read_row, rref, solve,
)
from crlie.report import fmt_vec

from oracles import (
    basis_of, basis_vector, first_nonpositive_minor_over_fractions, format_rat_over_fractions,
    format_terms_over_fractions, from_columns, from_pair, identity, intersect_over_fractions,
    is_zero, kernel_over_fractions, mat_add, matvec, reduce_over_fractions, rref_over_fractions,
    rows_of, scaled_sparse, solve_over_fractions, sparse, supplementary_by_intersection, vector,
    zeros,
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


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter reads integers of any length")
def test_rat_reads_every_spelling_of_one_value_alike_at_the_digit_limit():
    # 10^(limit - 1) has as many digits as int() reads from a string, 10^limit one more
    limit = sys.get_int_max_str_digits()
    assert rat(f"1e{limit - 1}") == rat(f"1{'0' * (limit - 1)}") == 10 ** (limit - 1)
    for spelling in [f"1e{limit}", f"10e{limit - 1}", f"1{'0' * limit}", f"-1e{limit}",
                     f"1e-{limit}", f"1/1{'0' * limit}", f"0.{'0' * (limit - 1)}1"]:
        with pytest.raises(ValueError, match="malformed rational"):
            rat(spelling)


@st.composite
def packable(draw, count=1):
    """A slot width w and `count` sparse integer vectors whose digits, and
    those of their sum, have |d| < 2^(w-1); the extremes are drawn often."""
    w = draw(st.integers(1, 80))
    top = ((1 << (w - 1)) - 1) // count
    if not top:
        return (w, *({} for _ in range(count)))
    digit = st.sampled_from([top, -top, 1, -1]) | st.integers(-top, top).filter(bool)
    return (w, *(draw(st.dictionaries(st.integers(0, 40), digit, max_size=12))
                 for _ in range(count)))


@settings(max_examples=300, deadline=None)
@given(packable())
def test_unpack_inverts_pack_below_the_strict_digit_bound(case):
    w, v = case
    P = linalg.pack(v, w)
    assert linalg.unpack(P, w) == v
    assert (P == 0) == (not v)


@settings(max_examples=200, deadline=None)
@given(packable(count=2))
def test_a_difference_of_packed_vectors_unpacks_to_the_difference(case):
    w, u, v = case
    want = {k: x for k in {*u, *v} if (x := u.get(k, 0) - v.get(k, 0))}
    assert linalg.unpack(linalg.pack(u, w) - linalg.pack(v, w), w) == want


@pytest.mark.parametrize("w", [1, 2, 8, 63, 64, 65])
def test_a_digit_at_the_bound_aliases(w):
    # two vectors with |d_k| <= 2^(w-1) pack alike, so their difference
    # {0: 2^w, 1: -1} packs to 0: the bound |d_k| < 2^(w-1) must be strict
    half = 1 << (w - 1)
    assert linalg.pack({0: half}, w) == linalg.pack({0: -half, 1: 1}, w)
    assert linalg.pack({0: 2 * half, 1: -1}, w) == 0


MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300

digits = st.integers(0, 10 ** 6).map(str)
canonical = st.one_of(
    digits, digits.map(lambda p: "-" + p),
    st.tuples(st.sampled_from(["", "-"]), digits, st.integers(1, 10 ** 4)).map(
        lambda t: f"{t[0]}{t[1]}/{t[2]}"),
    st.sampled_from(["-0", "3/06", "0/5", "-0/7", "007"]),
    st.sampled_from([str(p) for p in range(-9, 10) if p]))
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
    # past the int-string limit the digits are still printed in full
    assert format_rat(-(10 ** 5000)) == "-1" + "0" * 5000
    assert format_rat(Fraction(3, 10 ** 5000)) == "3/1" + "0" * 5000


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60).flatmap(lambda s: st.tuples(st.just(s), st.lists(st.one_of(
    st.sampled_from([0, s, -s, 2 * s, -3 * s]), st.integers(-200, 200),
    fractions(-50, 50, max_denominator=12)), max_size=6))))
def test_formatters_match_fraction_oracle(scale_coeffs):
    """format_rat and format_terms on integer coefficients (0, +-scale and
    negatives among them) and on `Fraction` ones print what the `Fraction`
    formatters print, also for names that hold signs themselves."""
    scale, coeffs = scale_coeffs
    for q in coeffs:
        assert format_rat(q, scale) == format_rat_over_fractions(q, scale)
    names = ["e1", "-b", "c+ -d", "- e", "f - ", "+g"]
    terms = [(q, names[i]) for i, q in enumerate(coeffs)]
    assert format_terms(terms, scale) == format_terms_over_fractions(terms, scale)


def test_term_signs_come_from_the_coefficients_not_the_names():
    # a + (-b) + 2 (c+ -d): no name may turn a "+" into a "-"
    assert fmt_vec(["a", "-b", "c+ -d"], {0: 1, 1: 1, 2: 2}) == "a + -b + 2*c+ -d"
    assert fmt_vec(["a", "-b", "c+ -d"], {0: -1, 1: -1, 2: -2}) == "-a - -b - 2*c+ -d"


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
    assert from_pair(solve(A, read_row(["3", "1/2"])), 2) == vector(["3", "1/2"])


MONOMIAL = Matrix([[0, 2, 0], [0, 0, 0], [0, -4, 0]])  # column 1 shared, row 1 zero


def test_solve_inconsistent():
    A = Matrix([[1, 1], [2, 2]])
    assert solve(A, read_row([1, 3])) is None
    # rows that share a column disagree; a zero row has b_i != 0
    assert solve(MONOMIAL, read_row([1, 0, 2])) is None
    assert solve(MONOMIAL, read_row(["1", "1/3", "-2"])) is None


def test_solve_free_variables_zero():
    A = Matrix([[1, 1]])
    assert from_pair(solve(A, read_row([5])), 2) == vector([5, 0])
    assert from_pair(solve(MONOMIAL, read_row([1, 0, -2])), 3) == vector(["0", "1/2", "0"])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(2), read_row([1, 2, 3]))
    # b is sparse, so only an index past A's rows shows the mismatch
    for A in (identity(2), Matrix([[1, 1], [1, -1]])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(A, (1, {2: 1}))


DENSE = Matrix([[1, 1], [1, -1]])  # eliminated: a row holds two entries


def test_solve_reads_the_scale_of_b():
    # b = (3/6, 4/6) on a monomial and on an eliminated system
    b = (6, {0: 3, 1: 4})
    assert from_pair(solve(Matrix([[2, 0], [0, 3]]), b), 2) == vector(["1/4", "2/9"])
    assert from_pair(solve(DENSE, b), 2) == vector(["7/12", "-1/12"])
    # and A's: (1/2) x = 1/2, (1/3) y = 2/3
    assert from_pair(solve(Matrix([["1/2", 0], [0, "1/3"]]), b), 2) == vector([1, 2])


def test_solve_reads_a_sparse_b_without_its_zeros():
    assert from_pair(solve(DENSE, (1, {1: 2})), 2) == vector([1, -1])
    assert from_pair(solve(MONOMIAL, (1, {})), 3) == vector([0, 0, 0])
    # b_1 = 0 on the zero row is omitted
    assert from_pair(solve(MONOMIAL, (3, {0: 2, 2: -4})), 3) == vector(["0", "1/3", "0"])


def test_solve_a_zero_row_needs_a_zero_b_i():
    assert solve(MONOMIAL, (1, {1: 1})) is None
    assert solve(Matrix([[1, 1], [0, 0]]), (1, {1: 1})) is None
    assert from_pair(solve(Matrix([[1, 1], [0, 0]]), (2, {0: 1})), 2) == vector(["1/2", 0])


def test_solve_rows_on_one_column_agree_as_rationals():
    # 2x = 1 and 4x = 2 agree only after reduction; 2x = 1 and 4x = 3 disagree
    A = Matrix([[2], [4]])
    assert from_pair(solve(A, (1, {0: 1, 1: 2})), 1) == vector(["1/2"])
    assert from_pair(solve(A, (3, {0: 3, 1: 6})), 1) == vector(["1/2"])
    assert solve(A, (1, {0: 1, 1: 3})) is None
    assert solve(Matrix([[2], [-4]]), (1, {0: 1, 1: 2})) is None


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
    for v in basis_of(k):
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
    full = Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}])
    with pytest.raises(ValueError):
        s.intersect(t)
    with pytest.raises(ValueError):
        full.intersect(t)
    for space in (s, full):
        with pytest.raises(ValueError):
            space.contains({3: 1})


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
    assert Subspace.span(basis_of(s), 3) == s


def test_reprs_format_the_integer_rows_over_their_scale():
    # each entry is x / scale in lowest terms, as `format_rat` spells it
    s = Subspace.span([(1, "1/2")], 2)
    assert s.scale == 2 and repr(s) == "Subspace(dim 1 of 2: 1 1/2)"
    assert (repr(Subspace.span([(0, "2/3", 4), (3, 0, "-1/5")], 3))
            == "Subspace(dim 2 of 3: 1 0 -1/15; 0 1 6)")
    assert repr(Subspace.span([], 2)) == "Subspace(dim 0 of 2: )"
    m = Matrix([[1, "1/3"], [0, "-2"]])
    assert m.scale == 3 and repr(m) == "Matrix[1 1/3; 0 -2]"
    assert repr(Matrix([[0, 0]])) == "Matrix[0 0]"


def test_matrix_transpose_and_product():
    m = Matrix([["1", "2"], ["3", "4"]])
    assert m.transpose() == Matrix([[1, 3], [2, 4]])
    assert (m * identity(2)) == m


def test_matrix_without_rows_is_empty_square():
    m = from_columns([])
    assert (m.rows, m.cols) == (0, 0)
    assert m.first_nonpositive_minor() is None


def rebuilt_rows(monkeypatch, rows, cols):
    """How many times `_echelon` replaces an earlier basis row by a new one,
    read from the basis it hands `remainder` at each row and the one it
    returns."""
    seen, reduce = [], linalg.remainder

    def recording(v, d, basis):
        seen.append(dict(basis))
        return reduce(v, d, basis)

    with monkeypatch.context() as m:
        m.setattr(linalg, "remainder", recording)
        seen.append(linalg._echelon(rows, cols)[1])
    return sum(after[p] is not b for before, after in zip(seen, seen[1:])
               for p, b in before.items())


def test_echelon_rebuilds_only_the_rows_a_new_pivot_changes(monkeypatch):
    n = 6
    # each new pivot of the identity equals the last and no earlier row has
    # an entry in its column, so every row is left as it is
    assert rebuilt_rows(monkeypatch, [{k: 1} for k in range(n)], n) == 0
    # I + J has leading minors 2, 3, ..., n + 1 and no zero entry, so each
    # new pivot changes every earlier row
    dense = [{k: 1 + (k == i) for k in range(n)} for i in range(n)]
    assert rebuilt_rows(monkeypatch, dense, n) == n * (n - 1) // 2


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


@pytest.mark.parametrize("rows, want", [
    ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], (2, 0)),   # row 2 depends on row 1
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], (2, 0)),   # row 2 pivots in column 3
    ([["1/2", 1], [1, 1]], (2, Fraction(-1, 2))),
])
def test_first_nonpositive_minor_examples(rows, want):
    assert Matrix(rows).first_nonpositive_minor() == want


def test_first_nonpositive_minor_needs_a_symmetric_square_matrix():
    with pytest.raises(ValueError, match="non-symmetric"):
        Matrix([[1, 2], [3, 4]]).first_nonpositive_minor()
    with pytest.raises(ValueError, match="non-square"):
        Matrix([[1, 0, 0], [0, 1, 0]]).first_nonpositive_minor()


# -- the fraction-free elimination against the `Fraction` oracles --------------

@st.composite
def matrices(draw):
    """Rational matrices with denominators, of any shape from 0 x n and
    n x 0 up to 5 x 5: some rows copied or combined from others (rank
    deficiency), some zero, and some columns zero."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
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


@st.composite
def monomial_matrices(draw, cols=None):
    """Rational matrices whose rows hold at most one nonzero entry, of any
    shape from 0 x n and n x 0 up to 6 x 5 (or 6 x cols): negative and
    non-unit entries, zero rows, and columns that several rows share or that
    no row uses."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 5)) if cols is None else cols
    data = [[Fraction(0)] * cols for _ in range(rows)]
    for row in data:
        k = draw(st.integers(-1, cols - 1))  # -1: a zero row
        if k >= 0:
            row[k] = draw(rationals.filter(bool))
    return Matrix.from_ints(cols, 1, []) if not data else Matrix(data)


def test_rref_of_monomial_rows_calls_no_elimination(monkeypatch):
    calls = []
    for name in ("_echelon", "remainder"):
        monkeypatch.setattr(linalg, name, lambda *args, f=getattr(linalg, name), name=name:
                            calls.append(name) or f(*args))
    rows = [{3: -2}, {}, {0: 5}, {3: 7}]
    assert rref(rows, 5) == (1, [{0: 1}, {3: 1}], [0, 3])
    assert calls == []
    # one row with two entries sends the whole set through one elimination
    assert rref([*rows, {1: 3, 4: 6}], 5) == (1, [{0: 1}, {1: 1, 4: 2}, {3: 1}], [0, 1, 3])
    assert calls.count("_echelon") == 1


@settings(max_examples=200, deadline=None)
@given(monomial_matrices(), st.data())
def test_monomial_solve_matches_fraction_oracle_without_elimination(A, data):
    """Right sides: A x, A x changed on one row of a column that other rows
    share (inconsistent there only), A x with a nonzero entry on a zero row,
    and an arbitrary one.  A column no row holds is a free variable, 0."""
    b = matvec(A, vector(data.draw(st.lists(rationals, min_size=A.cols, max_size=A.cols))))
    sides = [b, vector(data.draw(st.lists(rationals, min_size=A.rows, max_size=A.rows)))]
    by_column = {}
    for i, r in enumerate(A.ints):
        by_column.setdefault(min(r, default=None), []).append(i)
    shared = [rows for c, rows in by_column.items() if c is not None and len(rows) > 1]
    for rows in (data.draw(st.sampled_from(shared)) if shared else None, by_column.get(None)):
        if rows:
            i, q = data.draw(st.sampled_from(rows)), data.draw(rationals.filter(bool))
            sides.append(b[:i] + (b[i] + q,) + b[i + 1:])
    calls, echelon = [], linalg._echelon
    linalg._echelon = lambda *args: calls.append(args) or echelon(*args)
    try:
        got = [solve(A, read_row(side)) for side in sides]
    finally:
        linalg._echelon = echelon
    assert calls == []
    assert ([from_pair(x, A.cols) for x in got]
            == [solve_over_fractions(rows_of(A), side, A.cols) for side in sides])
    assert got[0] is not None and all(x is None for x in got[2:])


def fractions_of(s, R, cols):
    return [tuple(Fraction(r.get(k, 0), s) for k in range(cols)) for r in R]


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), monomial_matrices()))
def test_rref_matches_fraction_oracle(A):
    s, R, pivots = rref(A.ints, A.cols)
    rows, want_pivots = rref_over_fractions(rows_of(A))
    assert (fractions_of(s, R, A.cols), pivots) == (rows, want_pivots)
    assert s == lcm(*(e.denominator for r in rows for e in r))


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), monomial_matrices()), st.data())
def test_kernel_and_solve_match_fraction_oracles(A, data):
    K = kernel(A)
    assert (list(basis_of(K)), list(K.pivots)) == kernel_over_fractions(rows_of(A), A.cols)
    # a consistent right side (A times a vector) and an arbitrary one
    x = vector(data.draw(st.lists(rationals, min_size=A.cols, max_size=A.cols)))
    for b in (matvec(A, x), vector(data.draw(st.lists(rationals, min_size=A.rows,
                                                      max_size=A.rows)))):
        want = solve_over_fractions(rows_of(A), b, A.cols)
        assert from_pair(solve(A, read_row(b)), A.cols) == want


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kept_transpose_is_the_matrix_of_swapped_entries(A):
    t = A.transpose()
    assert t == Matrix.from_ints(A.rows, A.scale, [{i: r[k] for i, r in enumerate(A.ints) if k in r}
                                                   for k in range(A.cols)])
    assert A.transpose() is t and t.transpose() is A


@st.composite
def near_identities(draw, n):
    """Matrices with n columns next to the n x n identity: one entry of it
    changed, a permutation of its rows, a selection of its rows (any number,
    repeats allowed) or c I for c != 1."""
    kind = draw(st.sampled_from(["entry", "permutation", "selection", "scaled"]))
    if kind == "entry" and n:
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x = draw(rationals.filter(lambda x: x != (i == k)))
        return Matrix([[x if (a, b) == (i, k) else int(a == b) for b in range(n)]
                       for a in range(n)])
    if kind == "permutation":
        return Matrix([basis_vector(n, a) for a in draw(st.permutations(range(n)))])
    if kind == "selection" and n:
        rows = draw(st.lists(st.integers(0, n - 1), max_size=n + 1))
        return Matrix.from_ints(n, 1, [{a: 1} for a in rows])
    return identity(n, draw(rationals.filter(lambda c: c != 1)))


def product_over_fractions(A, B):
    a, b = rows_of(A), rows_of(B)
    return [tuple(sum((a[i][l] * b[l][k] for l in range(A.cols)), Fraction(0))
                  for k in range(B.cols)) for i in range(A.rows)]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_a_product_with_the_identity_is_its_other_factor(M, data):
    # the other factor is returned as it is, its kept transpose with it; when
    # M is an identity too, either factor is the product
    for P in (identity(M.rows) * M, M * identity(M.cols)):
        assert P is M or P == M == identity(M.rows)
    # a factor next to the identity goes through the product
    for A, B in ((data.draw(near_identities(M.rows)), M),
                 (M, data.draw(near_identities(M.cols)).transpose())):
        P = A * B
        assert ((P.rows, P.cols), rows_of(P)) == ((A.rows, B.cols), product_over_fractions(A, B))


def test_empty_shapes():
    zero_by_three, three_by_zero = Matrix.from_ints(3, 1, []), Matrix([[], [], []])
    assert (zero_by_three.rows, zero_by_three.cols) == (0, 3)
    assert (three_by_zero.rows, three_by_zero.cols) == (3, 0)
    assert kernel(zero_by_three) == Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}])
    assert kernel(three_by_zero) == Subspace.from_ints(0, [])
    assert from_pair(solve(zero_by_three, read_row(())), 3) == (0, 0, 0)
    assert from_pair(solve(three_by_zero, read_row((0, 0, 0))), 0) == ()
    assert solve(three_by_zero, read_row((0, 1, 0))) is None
    assert zero_by_three.transpose() == three_by_zero
    assert (three_by_zero * zero_by_three) == zeros(3, 3)


def spanning_lists(n):
    """Up to four rational vectors of length n, the n unit vectors, which
    span the whole space, or the rows of a monomial matrix."""
    return st.one_of(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=4),
                     st.just([basis_vector(n, k) for k in range(n)]),
                     monomial_matrices(n).map(rows_of))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), spanning_lists(n), spanning_lists(n),
    st.lists(rationals, min_size=n, max_size=n))))
def test_subspace_operations_match_fraction_oracles(case):
    n, vs, ws, v = case
    S, T = Subspace.span(vs, n), Subspace.span(ws, n)
    span = rref_over_fractions(vs)
    for got, want in [(S, span), (S.intersect(T), intersect_over_fractions(vs, ws, n))]:
        assert (list(basis_of(got)), list(got.pivots)) == want
    # the sparse remainder and the `Fraction` one
    assert S.reduce(sparse(v)) == sparse(S.scale * x for x in reduce_over_fractions(span, v))
    assert S.contains(sparse(v)) == is_zero(reduce_over_fractions(span, v))
    # the whole space skips the elimination in contains and intersect, and
    # supplements replaces the intersection by one rank
    assert S.contains(sparse(v)) == (not S.reduce(sparse(v)))
    assert S.intersect(T) == kernel(Matrix.from_ints(n, 1, _perp(S.scale, S.ints, S.pivots, n)
                                                     + _perp(T.scale, T.ints, T.pivots, n)))
    assert S.supplements(T) == T.supplements(S) == supplementary_by_intersection(S, T)
