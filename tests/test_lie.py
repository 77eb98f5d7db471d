from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crlie import InputError, LieAlgebra, StructureError, catalog, parse_document, sl2, so3
from crlie.linalg import Matrix, Subspace, format_rat, solve

from oracles import (
    ad_rows, basis_vector, bracket_expanded, center_kernel, column, dense_tensor,
    det_over_fractions, direct_sum, identity, int_table, is_zero, jacobiator,
    kernel_over_fractions, killing_entry, matvec, rows_of, structure_violations, vdot, vector,
    zeros,
)
from strategies import fractions


def validate_structure(c) -> list:
    """The antisymmetry and Jacobi violations of a dense bracket tensor, as
    `IntTable.violations` reports them."""
    return int_table(c).violations()


def heisenberg3() -> LieAlgebra:
    """The Heisenberg algebra, [e1, e2] = e3."""
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})


rationals = fractions(-3, 3, max_denominator=3)
vec3 = st.lists(rationals, min_size=3, max_size=3).map(vector)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n).map(vector)


@st.composite
def dense_tensors(draw, max_dim=4):
    """Antisymmetric c with random rational entries; Jacobi almost never holds."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    c = [[vector([0] * n)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = draw(vectors(n))
            c[j][i] = tuple(-e for e in c[i][j])
    return c


@st.composite
def perturbed_algebras(draw):
    """A 4-dimensional Lie algebra with one bracket entry changed, so that
    Jacobi fails on some basis triples and holds on others."""
    g = direct_sum(draw(st.sampled_from([so3, sl2, heisenberg3]))(),
                   LieAlgebra.from_brackets(1, {}))
    c = [list(row) for row in dense_tensor(g)]
    i, j = draw(st.sampled_from([(a, b) for a in range(4) for b in range(a + 1, 4)]))
    m = draw(st.integers(min_value=0, max_value=3))
    v = list(c[i][j])
    v[m] += draw(st.sampled_from([-1, 1, 2]))
    c[i][j], c[j][i] = tuple(v), tuple(-e for e in v)
    return c


def test_so3_bracket_example():
    g = so3()
    assert g.bracket(basis_vector(3, 0), basis_vector(3, 1)) == basis_vector(3, 2)


@given(vec3)
def test_bracket_of_x_with_itself_vanishes(x):
    assert is_zero(so3().bracket(x, x))


@given(vec3, vec3)
def test_abelian_brackets_vanish(x, y):
    assert is_zero(LieAlgebra.from_brackets(3, {}).bracket(x, y))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_matches_expanded_oracle_on_dense_tensors(data):
    c = data.draw(dense_tensors())
    n = len(c)
    x, y = data.draw(vectors(n)), data.draw(vectors(n))
    assert LieAlgebra(int_table(c), validate=False).bracket(x, y) == bracket_expanded(c, x, y)


@st.composite
def dense_basis_algebras(draw):
    """so(3), sl(2) or the Heisenberg algebra in the basis P e_i of a random
    invertible integer P: c'[i][j] = P^-1 [P e_i, P e_j]."""
    make = draw(st.sampled_from([so3, sl2, heisenberg3]))
    entries = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=9, max_size=9))
    P = Matrix([entries[0:3], entries[3:6], entries[6:9]])
    assume(det_over_fractions(rows_of(P)) != 0)
    c = dense_tensor(make())
    return [[solve(P, bracket_expanded(c, column(P, i), column(P, j))) for j in range(3)]
            for i in range(3)]


@st.composite
def asymmetric_tensors(draw):
    """A dense tensor with one entry of some c[j][i], i <= j, changed: the
    diagonal ones break antisymmetry at (i, i), the others at (i, j)."""
    c = [list(row) for row in draw(dense_tensors())]
    n = len(c)
    i, j = sorted(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    m = draw(st.integers(min_value=0, max_value=n - 1))
    v = list(c[j][i])
    v[m] += draw(st.sampled_from([Fraction(-1, 2), 1, 3]))
    c[j][i] = tuple(v)
    return c


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_tensors(), perturbed_algebras(), dense_basis_algebras()))
def test_validate_structure_matches_entrywise_jacobiator(c):
    # antisymmetric inputs: exactly the triples with a nonzero Jacobiator
    n = len(c)
    expected = [("jacobi", (i, j, k)) for i in range(n) for j in range(i + 1, n)
                for k in range(j + 1, n) if not is_zero(jacobiator(c, i, j, k))]
    assert validate_structure(c) == expected


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_tensors(), perturbed_algebras(), asymmetric_tensors(),
                 dense_basis_algebras()))
def test_validate_structure_matches_fraction_oracle(c):
    # antisymmetry on every pair, then the Jacobiator entry by entry
    assert validate_structure(c) == structure_violations(c)


@settings(max_examples=30, deadline=None)
@given(dense_basis_algebras())
def test_validate_structure_accepts_lie_algebras_in_dense_bases(c):
    assert validate_structure(c) == []
    assert is_zero(jacobiator(c, 0, 1, 2))


def test_ad_so3():
    ad1 = so3().ad(basis_vector(3, 0))
    assert matvec(ad1, basis_vector(3, 1)) == basis_vector(3, 2)
    assert matvec(ad1, basis_vector(3, 2)) == tuple(-e for e in basis_vector(3, 1))


def test_ad_zero_and_abelian():
    assert so3().ad((Fraction(0),) * 3) == zeros(3, 3)
    assert LieAlgebra.from_brackets(4, {}).ad(basis_vector(4, 1)) == zeros(4, 4)


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_tensors(), perturbed_algebras(), dense_basis_algebras()), st.data())
def test_ad_and_centralizer_match_bracket_oracle(c, data):
    # sparse x (zero coordinates are skipped) and dense ones; the tensor need
    # not be a Lie algebra
    g = LieAlgebra(int_table(c), validate=False)
    x = data.draw(st.one_of(vectors(g.dim), st.integers(0, g.dim - 1).map(
        lambda i: basis_vector(g.dim, i))))
    ad = ad_rows(c, x)
    assert g.ad(x) == Matrix(ad)
    assert list(g.centralizer(x).basis) == kernel_over_fractions(ad, g.dim)[0]


# -- Killing form ------------------------------------------------------------

def test_killing_so3_frozen_against_trace_oracle():
    g = so3()
    K = g.killing_form()
    c = dense_tensor(g)
    expected = Matrix([[killing_entry(c, i, j) for j in range(3)] for i in range(3)])
    assert K == expected
    assert K == identity(3, -2)


@settings(max_examples=40, deadline=None)
@given(st.one_of(dense_basis_algebras(), dense_tensors()))
def test_killing_form_matches_trace_oracle(c):
    # and Cartan's criterion: semisimple iff the trace Killing form has det != 0
    g = LieAlgebra(int_table(c), validate=False)
    n = g.dim
    K = [[killing_entry(c, i, j) for j in range(n)] for i in range(n)]
    assert g.killing_form() == Matrix(K)
    assert g.is_semisimple() == (det_over_fractions(K) != 0)


def test_killing_abelian_zero():
    assert LieAlgebra.from_brackets(3, {}).killing_form() == zeros(3, 3)


def test_killing_sl2_frozen_against_trace_oracle():
    g = sl2()
    K = g.killing_form()
    for i in range(3):
        for j in range(3):
            assert K[i, j] == killing_entry(dense_tensor(g), i, j)
    assert K[2, 2] == 8          # K(h,h)
    assert K[0, 1] == 4          # K(e,f)
    assert K[0, 0] == K[1, 1] == K[0, 2] == K[1, 2] == 0


def test_killing_symmetric_and_ad_invariant():
    for g in (so3(), sl2(), heisenberg3()):
        K = g.killing_form()
        assert K.is_symmetric()
        n = g.dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    x, y, z = (basis_vector(n, t) for t in (a, b, c))
                    lhs = vdot(g.bracket(x, y), matvec(K, z))
                    rhs = vdot(y, matvec(K, g.bracket(x, z)))
                    assert lhs + rhs == 0


def test_semisimplicity():
    assert so3().is_semisimple()
    assert sl2().is_semisimple()
    assert not LieAlgebra.from_brackets(1, {}).is_semisimple()
    assert not LieAlgebra.from_brackets(4, {}).is_semisimple()
    assert not heisenberg3().is_semisimple()


# -- center / centralizer ----------------------------------------------------

def test_center():
    assert so3().center().dim == 0
    assert (LieAlgebra.from_brackets(3, {}).center()
            == Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}]))
    assert heisenberg3().center() == Subspace.span([basis_vector(3, 2)], 3)


@pytest.mark.parametrize("entry_id", catalog.ids())
def test_center_matches_dense_construction_on_catalog(entry_id):
    g = parse_document(catalog.get(entry_id).document).algebra
    assert list(g.center().basis) == center_kernel(dense_tensor(g))[0]


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_tensors(), perturbed_algebras(), asymmetric_tensors(),
                 dense_basis_algebras(),
                 st.integers(1, 4).map(lambda n: dense_tensor(LieAlgebra.from_brackets(n, {})))))
def test_center_matches_dense_construction(c):
    g = LieAlgebra(int_table(c), validate=False)
    assert list(g.center().basis) == center_kernel(c)[0]


def test_center_is_ideal_centralizer_is_subalgebra():
    for g in (so3(), sl2(), heisenberg3()):
        assert g.is_ideal(g.center())
        for i in range(g.dim):
            assert g.is_subalgebra(g.centralizer(basis_vector(g.dim, i)))


def test_centralizer():
    assert so3().centralizer(basis_vector(3, 2)) == Subspace.span([basis_vector(3, 2)], 3)
    assert so3().centralizer((Fraction(0),) * 3) == Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}])
    assert sl2().centralizer(basis_vector(3, 2)) == Subspace.span([basis_vector(3, 2)], 3)


# -- subalgebra / ideal ------------------------------------------------------

def test_subalgebra_and_ideal():
    e3 = Subspace.span([basis_vector(3, 2)], 3)
    assert so3().is_subalgebra(e3)
    assert not so3().is_ideal(e3)
    zero = Subspace.from_ints(3, [])
    assert so3().is_subalgebra(zero) and so3().is_ideal(zero)
    assert heisenberg3().is_subalgebra(e3) and heisenberg3().is_ideal(e3)


# -- construction validation -------------------------------------------------

def test_construction_rejects_every_single_mutation_of_so3():
    base = so3()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c = [[list(v) for v in row] for row in dense_tensor(base)]
                c[i][j][k] += 1
                with pytest.raises(StructureError):
                    LieAlgebra(int_table(c))


def test_structure_error_carries_witnesses():
    c = [[list((Fraction(0),) * 3) for _ in range(3)] for _ in range(3)]
    c[0][1][2] = Fraction(1)
    c[1][0][2] = Fraction(1)  # should be -1
    with pytest.raises(StructureError) as exc:
        LieAlgebra(int_table(c))
    assert ("antisymmetry", (0, 1)) in exc.value.violations


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_tensors(), perturbed_algebras(), dense_basis_algebras()), st.data())
def test_parsed_algebra_matches_dense_construction(c, data):
    # each pair a < b listed as (a, b), as (b, a) with the opposite value, both
    # ways, or, when its bracket is zero, not at all; in a shuffled order.
    # The parser mirrors what is given and never builds the dense tensor
    n = len(c)
    entries = []
    for a in range(n):
        for b in range(a + 1, n):
            ways = [[(a, b)], [(b, a)], [(a, b), (b, a)]] + ([[]] if is_zero(c[a][b]) else [])
            for x, y in data.draw(st.sampled_from(ways)):
                entries.append({"x": x + 1, "y": y + 1,
                                "result": [format_rat(e) for e in c[x][y]]})
    doc = {"algebra": {"dim": n, "brackets": data.draw(st.permutations(entries))}}
    try:
        expected = LieAlgebra(int_table(c))
    except StructureError as e:
        with pytest.raises(InputError) as exc:
            parse_document(doc)
        assert exc.value.diagnostics == [f"algebra.brackets: {e}"]
    else:
        assert parse_document(doc).algebra == expected
