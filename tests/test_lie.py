from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crlie import LieAlgebra, StructureError, heisenberg3, sl2, so3
from crlie.lie import validate_structure
from crlie.linalg import Matrix, Subspace, basis_vector, is_zero, solve, vector

from oracles import (
    bracket_expanded, jacobiator, killing_entry, validate_structure_over_fractions,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
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
    g = draw(st.sampled_from([so3, sl2, heisenberg3]))().direct_sum(LieAlgebra.abelian(1))
    c = [list(row) for row in g.c]
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
    assert is_zero(LieAlgebra.abelian(3).bracket(x, y))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_matches_expanded_oracle_on_dense_tensors(data):
    c = data.draw(dense_tensors())
    n = len(c)
    x, y = data.draw(vectors(n)), data.draw(vectors(n))
    assert LieAlgebra(c, validate=False).bracket(x, y) == bracket_expanded(c, x, y)


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_tensors(), perturbed_algebras()))
def test_validate_structure_matches_entrywise_jacobiator(c):
    n = len(c)
    expected = [("jacobi", (i, j, k)) for i in range(n) for j in range(i + 1, n)
                for k in range(j + 1, n) if not is_zero(jacobiator(c, i, j, k))]
    assert validate_structure(c) == expected


@st.composite
def dense_basis_algebras(draw):
    """so(3), sl(2) or the Heisenberg algebra in the basis P e_i of a random
    invertible integer P: c'[i][j] = P^-1 [P e_i, P e_j]."""
    make = draw(st.sampled_from([so3, sl2, heisenberg3]))
    entries = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=9, max_size=9))
    P = Matrix([entries[0:3], entries[3:6], entries[6:9]])
    assume(P.det() != 0)
    g = make()
    return [[solve(P, bracket_expanded(g.c, P.column(i), P.column(j))) for j in range(3)]
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
@given(st.one_of(dense_tensors(), perturbed_algebras(), asymmetric_tensors(),
                 dense_basis_algebras()))
def test_validate_structure_matches_fraction_oracle(c):
    assert validate_structure(c) == validate_structure_over_fractions(c)


@settings(max_examples=30, deadline=None)
@given(dense_basis_algebras())
def test_validate_structure_accepts_lie_algebras_in_dense_bases(c):
    assert validate_structure(c) == []
    assert is_zero(jacobiator(c, 0, 1, 2))


def test_ad_so3():
    ad1 = so3().ad(basis_vector(3, 0))
    assert ad1.matvec(basis_vector(3, 1)) == basis_vector(3, 2)
    assert ad1.matvec(basis_vector(3, 2)) == tuple(-e for e in basis_vector(3, 1))


def test_ad_zero_and_abelian():
    assert so3().ad((Fraction(0),) * 3).is_zero()
    assert LieAlgebra.abelian(4).ad(basis_vector(4, 1)).is_zero()


# -- Killing form ------------------------------------------------------------

def test_killing_so3_frozen_against_trace_oracle():
    g = so3()
    K = g.killing_form()
    expected = Matrix([[killing_entry(g, i, j) for j in range(3)] for i in range(3)])
    assert K == expected
    assert K == Matrix.identity(3).scale(-2)


@settings(max_examples=40, deadline=None)
@given(st.one_of(dense_basis_algebras(), dense_tensors()))
def test_killing_form_matches_trace_oracle(c):
    g = LieAlgebra(c, validate=False)
    n = g.dim
    assert g.killing_form() == Matrix([[killing_entry(g, i, j) for j in range(n)]
                                       for i in range(n)])


def test_killing_abelian_zero():
    assert LieAlgebra.abelian(3).killing_form().is_zero()


def test_killing_sl2_frozen_against_trace_oracle():
    g = sl2()
    K = g.killing_form()
    for i in range(3):
        for j in range(3):
            assert K[i, j] == killing_entry(g, i, j)
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
                    from crlie.linalg import vdot
                    lhs = vdot(g.bracket(x, y), K.matvec(z))
                    rhs = vdot(y, K.matvec(g.bracket(x, z)))
                    assert lhs + rhs == 0


def test_semisimplicity():
    assert so3().is_semisimple()
    assert sl2().is_semisimple()
    assert not LieAlgebra.abelian(1).is_semisimple()
    assert not LieAlgebra.abelian(4).is_semisimple()
    assert not heisenberg3().is_semisimple()


# -- center / centralizer ----------------------------------------------------

def test_center():
    assert so3().center().dim == 0
    assert LieAlgebra.abelian(3).center() == Subspace.full(3)
    assert heisenberg3().center() == Subspace.span([basis_vector(3, 2)], 3)


def test_center_is_ideal_centralizer_is_subalgebra():
    for g in (so3(), sl2(), heisenberg3()):
        assert g.is_ideal(g.center())
        for i in range(g.dim):
            assert g.is_subalgebra(g.centralizer(basis_vector(g.dim, i)))


def test_centralizer():
    assert so3().centralizer(basis_vector(3, 2)) == Subspace.span([basis_vector(3, 2)], 3)
    assert so3().centralizer((Fraction(0),) * 3) == Subspace.full(3)
    assert sl2().centralizer(basis_vector(3, 2)) == Subspace.span([basis_vector(3, 2)], 3)


# -- subalgebra / ideal ------------------------------------------------------

def test_subalgebra_and_ideal():
    e3 = Subspace.span([basis_vector(3, 2)], 3)
    assert so3().is_subalgebra(e3)
    assert not so3().is_ideal(e3)
    zero = Subspace.zero(3)
    assert so3().is_subalgebra(zero) and so3().is_ideal(zero)
    assert heisenberg3().is_subalgebra(e3) and heisenberg3().is_ideal(e3)


# -- quotient ----------------------------------------------------------------

def test_quotient_heisenberg_center():
    q = heisenberg3().quotient(Subspace.span([basis_vector(3, 2)], 3))
    assert q.dim == 2
    assert q == LieAlgebra.abelian(2)


def test_quotient_by_zero_is_identity():
    g = so3()
    assert g.quotient(Subspace.zero(3)) == g


def test_quotient_so3_plus_r_by_r_factor():
    g = so3().direct_sum(LieAlgebra.abelian(1))
    q = g.quotient(Subspace.span([basis_vector(4, 3)], 4))
    assert q == so3()


def test_quotient_respects_dimension():
    g = heisenberg3().direct_sum(LieAlgebra.abelian(2))
    ideal = Subspace.span([basis_vector(5, 2), basis_vector(5, 3)], 5)
    assert g.quotient(ideal).dim == g.dim - ideal.dim


def test_quotient_rejects_non_ideal():
    with pytest.raises(ValueError):
        so3().quotient(Subspace.span([basis_vector(3, 2)], 3))


# -- construction validation -------------------------------------------------

def test_construction_rejects_every_single_mutation_of_so3():
    base = so3()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c = [[list(v) for v in row] for row in base.c]
                c[i][j][k] += 1
                with pytest.raises(StructureError):
                    LieAlgebra(c)


def test_structure_error_carries_witnesses():
    c = [[list((Fraction(0),) * 3) for _ in range(3)] for _ in range(3)]
    c[0][1][2] = Fraction(1)
    c[1][0][2] = Fraction(1)  # should be -1
    with pytest.raises(StructureError) as exc:
        LieAlgebra(c)
    assert ("antisymmetry", (0, 1)) in exc.value.violations
