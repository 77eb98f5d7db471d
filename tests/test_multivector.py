from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crlie import Bivector, LieAlgebra, Trivector, schouten, sl2, so3
from crlie.linalg import Matrix, Subspace
from crlie.multivector import (
    derive_ints, push_ints, quotient_columns, schouten_ints, wedge_subspace_residual,
)

from oracles import (
    ARITY, alternating, apply_exterior_power, basis_vector, coefficients, column, combine,
    from_brackets, identity, int_table, rows_of, schouten_decomposable, vector, wedge_coeffs,
    wedge_span_remainder,
)
from strategies import fractions

rationals = fractions(-3, 3, max_denominator=2)


def canonical(ints: dict, arity: int, dim: int) -> dict:
    """ints, asserted to be a kernel's output: nonzero ints on strictly
    increasing keys of the given arity, which `coboundary_pi` and
    `check_j_invariance` read without `from_ints`."""
    for key, x in ints.items():
        assert len(key) == arity and list(key) == sorted(set(key)), key
        assert 0 <= key[0] and key[-1] < dim, key
        assert type(x) is int and x != 0, (key, x)
    return ints


def push(A: Matrix, t):
    """`push_ints` on the integer forms of A and t, scaled back."""
    cols = dict(enumerate(A.transpose().ints))
    ints = canonical(push_ints(cols, t.ints), ARITY[type(t)], t.dim)
    return t.from_ints(t.dim, t.scale * A.scale ** ARITY[type(t)], ints)


def derive(D: Matrix, t):
    """`derive_ints` on the integer forms of D and t, scaled back."""
    cols = dict(enumerate(D.transpose().ints))
    return t.from_ints(t.dim, t.scale * D.scale,
                       canonical(derive_ints(cols, t.ints), ARITY[type(t)], t.dim))


def dense(cls, dim):
    keys = list(combinations(range(dim), ARITY[cls]))
    return st.lists(rationals, min_size=len(keys), max_size=len(keys)).map(
        lambda cs: alternating(cls, dim, dict(zip(keys, cs))))


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Matrix)


def sparse(cls, dim):
    """A few coefficients on random keys, so that a replaced index lands
    below, between, above and on the other indices of a key."""
    keys = list(combinations(range(dim), ARITY[cls]))
    return st.dictionaries(st.sampled_from(keys), rationals, max_size=4).map(
        lambda cs: alternating(cls, dim, cs))


def sparse_square(n):
    entries = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.dictionaries(entries, rationals, max_size=2 * n).map(
        lambda e: Matrix([[e.get((i, j), 0) for j in range(n)] for i in range(n)]))


def tensor_and_map(cls, data):
    """A dense tensor and map for n <= 5, or sparse ones for n <= 7."""
    if data.draw(st.booleans()):
        n = data.draw(st.integers(ARITY[cls], 5))
        return data.draw(dense(cls, n)), data.draw(square(n))
    n = data.draw(st.integers(ARITY[cls], 7))
    return data.draw(sparse(cls, n)), data.draw(sparse_square(n))


def test_wedge_examples():
    # `alternating` signs and merges the raw keys of a wedge
    assert alternating(Bivector, 3, wedge_coeffs(basis_vector(3, 0), basis_vector(3, 1))) == (
        Bivector.from_ints(3, 1, {(0, 1): 1}))
    x = vector(["2", "1/3", "-1"])
    assert alternating(Bivector, 3, wedge_coeffs(x, x)).is_zero()


def test_wedge3_odd_permutation():
    t = alternating(Trivector, 3, wedge_coeffs(*(basis_vector(3, i) for i in (2, 1, 0))))
    assert t == Trivector.from_ints(3, 1, {(0, 1, 2): -1})


def test_integer_form_is_canonical():
    # ints / scale in lowest terms with scale > 0 and keys sorted
    b = Bivector.from_ints(3, -8, {(1, 2): 6, (0, 1): 4, (0, 2): 0})
    assert (b.dim, b.scale, b.ints) == (3, 4, {(0, 1): -2, (1, 2): -3})
    assert all(type(x) is int for x in b.ints.values()) and list(b.ints) == [(0, 1), (1, 2)]
    # the oracles' raw keys are signed and merged onto the same form
    assert alternating(Bivector, 3, {(1, 0): "1/2", (1, 2): Fraction(-3, 4), (2, 1): 0}) == b
    assert alternating(Trivector, 3, {(0, 1, 2): 1, (2, 1, 0): 1}).is_zero()
    assert b != Trivector.from_ints(3, 1, {}) and Bivector.from_ints(3, 1, {}) != (
        Bivector.from_ints(4, 1, {}))
    assert b.format(["x", "y", "z"]) == "-1/2*x^y - 3/4*y^z"
    with pytest.raises(AttributeError):
        b.scale = 1


def test_extend_map_identity():
    for t in ([alternating(Bivector, 3, {key: 1}) for key in combinations(range(3), 2)]
              + [alternating(Trivector, 3, {(0, 1, 2): 5})]):
        assert push(identity(3), t) == t


def test_extend_map_j_on_so3():
    j = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    image = push(j, alternating(Bivector, 3, {(0, 1): 1}))
    # j e1 ^ j e2 = e2 ^ (-e1) = e1 ^ e2
    assert image == alternating(Bivector, 3, {(0, 1): 1})


def test_extend_derivation_3_ad_h_on_sl2():
    g = sl2()
    # Leibniz term-by-term: [h,e]^f^h + e^[h,f]^h + e^f^[h,h] = 2e^f^h - 2e^f^h
    assert derive(g.ad({2: 1}), alternating(Trivector, 3, {(0, 1, 2): 1})).is_zero()


@settings(max_examples=30, deadline=None)
@given(square(3), square(3))
def test_lambda2_is_multiplicative(a, b):
    for key in combinations(range(3), 2):
        t = alternating(Bivector, 3, {key: 1})
        assert push(a * b, t) == push(a, push(b, t))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((Bivector, Trivector)), st.data())
def test_push_and_derive_match_exterior_power_matrix(cls, data):
    n = data.draw(st.integers(ARITY[cls], 5))
    a = data.draw(square(n))
    t = data.draw(dense(cls, n))
    assert push(a, t) == apply_exterior_power(rows_of(a), t)
    assert derive(a, t) == apply_exterior_power(rows_of(a), t, leibniz=True)


def push_by_wedges(A: Matrix, t):
    """sum_I t_I A e_i1 ^ ... ^ A e_ik, from the wedges of A's columns."""
    cols = [column(A, i) for i in range(A.cols)]
    return alternating(type(t), t.dim, combine(*((c, wedge_coeffs(*(cols[i] for i in key)))
                                    for key, c in coefficients(t).items())))


def derive_by_wedges(D: Matrix, t):
    """The Leibniz sum over I and m of t_I e_i1 ^ ... ^ D e_im ^ ... ^ e_ik."""
    n = t.dim
    terms = []
    for key, c in coefficients(t).items():
        for m in range(len(key)):
            vs = [column(D, i) if p == m else basis_vector(n, i) for p, i in enumerate(key)]
            terms.append((c, wedge_coeffs(*vs)))
    return alternating(type(t), n, combine(*terms))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((Bivector, Trivector)), st.data())
def test_push_and_derive_match_fraction_oracles(cls, data):
    t, a = tensor_and_map(cls, data)
    assert push(a, t) == push_by_wedges(a, t)
    assert derive(a, t) == derive_by_wedges(a, t)


def test_kernels_drop_cancelled_terms():
    # every term cancels or repeats an index; the raw dicts must be empty
    assert push_ints({0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}, {(0, 1): 1}) == {}
    assert derive_ints(sl2().table.rows[2], {(0, 1, 2): 1}) == {}
    p, q = {(0, 2): 1, (1, 2): 1}, {(0, 2): 1, (1, 2): -1}
    assert schouten_ints(so3().table.rows, p, q) == {}


# -- schouten ----------------------------------------------------------------

def test_schouten_abelian_vanishes():
    g = from_brackets(4, {})
    p = alternating(Bivector, 4, {(0, 1): 1, (2, 3): Fraction(1, 2)})
    q = alternating(Bivector, 4, {(0, 2): -1})
    assert schouten(g, p, q).is_zero()


def test_schouten_so3_frozen_against_oracle():
    g = so3()
    p = alternating(Bivector, 3, {(0, 1): 1})
    t = schouten(g, p, p)
    assert t == schouten_decomposable(g, p, p)
    assert t == alternating(Trivector, 3, {(0, 1, 2): 2})


def test_schouten_sl2_frozen_against_oracle():
    g = sl2()
    p = alternating(Bivector, 3, {(0, 1): 1})  # e ^ f
    t = schouten(g, p, p)
    assert t == schouten_decomposable(g, p, p)
    assert t == alternating(Trivector, 3, {(0, 1, 2): 2})  # 2 e^f^h


@settings(max_examples=30, deadline=None)
@given(dense(Bivector, 3), dense(Bivector, 3))
def test_schouten_symmetric_for_bivectors(p, q):
    g = so3()
    assert schouten(g, p, q) == schouten(g, q, p)


@settings(max_examples=30, deadline=None)
@given(dense(Bivector, 3), dense(Bivector, 3), dense(Bivector, 3))
def test_schouten_bilinear(p, p2, q):
    g = sl2()
    lhs = schouten(g, alternating(Bivector, 3, combine((1, p), (1, p2))), q)
    rhs = alternating(Trivector, 3, combine((1, schouten(g, p, q)), (1, schouten(g, p2, q))))
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(dense(Bivector, 3))
def test_ad_acts_by_derivations_of_schouten(p):
    for g in (so3(), sl2()):
        t = schouten(g, p, p)
        for i in range(3):
            ad = g.ad({i: 1})
            lhs = derive(ad, t)
            dp = derive(ad, p)
            rhs = alternating(Trivector, 3, combine((2, schouten(g, dp, p))))
            assert lhs == rhs


# -- wedge-subspace membership ----------------------------------------------

def test_membership_full_space_always_true():
    t = alternating(Trivector, 3, {(0, 1, 2): 7})
    whole = quotient_columns(Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}]))
    assert wedge_subspace_residual(t, whole).is_zero()


def test_membership_so3_volume_in_e3_wedge():
    t = alternating(Trivector, 3, {(0, 1, 2): 2})
    e3 = quotient_columns(Subspace.span([basis_vector(3, 2)], 3))
    assert wedge_subspace_residual(t, e3).is_zero()


def test_membership_zero_subspace():
    t = alternating(Trivector, 3, {(0, 1, 2): 2})
    zero = quotient_columns(Subspace.from_ints(3, []))
    assert not wedge_subspace_residual(t, zero).is_zero()
    assert wedge_subspace_residual(alternating(Trivector, 3), zero).is_zero()


@settings(max_examples=20, deadline=None)
@given(fractions(Fraction(1, 3), 5, max_denominator=3))
def test_membership_invariant_under_scaling(c):
    t = alternating(Trivector, 4, {(0, 1, 2): 2, (0, 2, 3): -1})
    for u in (Subspace.span([basis_vector(4, 2)], 4), Subspace.from_ints(4, []),
              Subspace.from_ints(4, [{0: 1}, {1: 1}, {2: 1}, {3: 1}])):
        q = quotient_columns(u)
        assert (wedge_subspace_residual(t, q).is_zero()
                == wedge_subspace_residual(alternating(Trivector, 4, combine((c, t))), q).is_zero())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_residual_matches_span_remainder(data):
    n = data.draw(st.integers(3, 6))
    d = data.draw(st.integers(0, n))
    u = Subspace.span(data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                                         min_size=d, max_size=d)), n)
    assume(u.dim == d)
    t = data.draw(dense(Trivector, n))
    assert wedge_subspace_residual(t, quotient_columns(u)) == wedge_span_remainder(t, u)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        wedge_subspace_residual(alternating(Trivector, 3),
                                quotient_columns(Subspace.from_ints(4, [])))
    with pytest.raises(ValueError):
        p = alternating(Bivector, 4, {(0, 1): 1})
        schouten(so3(), p, p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_schouten_matches_fraction_oracle(data):
    # any tensor with denominators, antisymmetric or not: both sides read c as is
    if data.draw(st.booleans()):
        n = data.draw(st.integers(2, 4))
        c = [[data.draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
             for _ in range(n)]
        p, q = data.draw(dense(Bivector, n)), data.draw(dense(Bivector, n))
    else:
        n = data.draw(st.integers(2, 7))
        entries = data.draw(st.dictionaries(
            st.tuples(*3 * [st.integers(0, n - 1)]), rationals, max_size=3 * n))
        c = [[[entries.get((i, j, k), 0) for k in range(n)] for j in range(n)]
             for i in range(n)]
        p, q = data.draw(sparse(Bivector, n)), data.draw(sparse(Bivector, n))
    g = LieAlgebra(int_table(c), validate=False)
    canonical(schouten_ints(g.table.rows, p.ints, q.ints), 3, n)
    assert schouten(g, p, q) == schouten_decomposable(g, p, q)
