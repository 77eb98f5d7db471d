from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crlie import InputError, LieAlgebra, StructureError, catalog, parse_document, sl2, so3
from crlie import lie, linalg
from crlie.lie import IntTable
from crlie.linalg import Matrix, Subspace, format_rat, read_row, solve

from oracles import (
    ad_rows, basis_of, basis_vector, bracket, bracket_expanded, center_kernel, column,
    cyclic_defects_by_sums, dense_tensor, det_over_fractions, direct_sum, evaluate_by_sums,
    from_brackets, from_pair, identity, int_table, is_zero, jacobiator, kernel_over_fractions,
    killing_entry, matvec, rows_of, structure_violations, vdot, vector, zeros,
)
from strategies import fractions


def validate_structure(c) -> list:
    """The antisymmetry and Jacobi violations of a dense bracket tensor, as
    `IntTable.violations` reports them."""
    return int_table(c).violations()


def heisenberg3() -> LieAlgebra:
    """The Heisenberg algebra, [e1, e2] = e3."""
    return from_brackets(3, {(0, 1): [0, 0, 1]})


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
                   from_brackets(1, {}))
    c = [list(row) for row in dense_tensor(g)]
    i, j = draw(st.sampled_from([(a, b) for a in range(4) for b in range(a + 1, 4)]))
    m = draw(st.integers(min_value=0, max_value=3))
    v = list(c[i][j])
    v[m] += draw(st.sampled_from([-1, 1, 2]))
    c[i][j], c[j][i] = tuple(v), tuple(-e for e in v)
    return c


def test_so3_bracket_example():
    # [e1, e2] = e3 over scale 1
    table = so3().table
    assert table.scale == 1
    assert table.evaluate([{0: 1}], [{1: 1}]) == {(0, 0): {2: 1}}


@given(vec3)
def test_bracket_of_x_with_itself_vanishes(x):
    xs = read_row(x)[1]
    assert so3().table.evaluate([xs], [xs]) == {}


@st.composite
def dense_basis_algebras(draw):
    """so(3), sl(2) or the Heisenberg algebra in the basis P e_i of a random
    invertible integer P: c'[i][j] = P^-1 [P e_i, P e_j]."""
    make = draw(st.sampled_from([so3, sl2, heisenberg3]))
    entries = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=9, max_size=9))
    P = Matrix([entries[0:3], entries[3:6], entries[6:9]])
    assume(det_over_fractions(rows_of(P)) != 0)
    c = dense_tensor(make())
    return [[from_pair(solve(P, read_row(bracket_expanded(c, column(P, i), column(P, j)))), 3)
             for j in range(3)] for i in range(3)]


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


@st.composite
def outer_tables(draw, c):
    """A table outer[a][l] of integer vectors of width 1 or 2, most entries
    zero; a row drawn not to meet c keeps only the l outside every bracket."""
    n, width = len(c), draw(st.integers(min_value=1, max_value=2))
    support = {l for row in c for v in row for l, x in enumerate(v) if x}
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    outer = []
    for _ in range(n):
        meets = draw(st.booleans())
        outer.append([tuple(Fraction(draw(entry)) if meets or l not in support else Fraction(0)
                            for _ in range(width)) for l in range(n)])
    return outer, width


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validate_structure_matches_entrywise_jacobiator(data):
    # antisymmetric inputs: exactly the triples with a nonzero Jacobiator, and
    # against any outer table exactly those with a nonzero cyclic sum
    c = data.draw(st.one_of(dense_tensors(), perturbed_algebras(), dense_basis_algebras()))
    n = len(c)
    expected = [("jacobi", (i, j, k)) for i in range(n) for j in range(i + 1, n)
                for k in range(j + 1, n) if not is_zero(jacobiator(c, i, j, k))]
    assert validate_structure(c) == expected
    outer, width = data.draw(outer_tables(c))
    found = int_table(c).cyclic_defects(int_table(outer).rows)
    assert found == cyclic_defects_by_sums(c, outer, width)


# units of 20 and more digits: as basis units they keep which triples fail
# Jacobi, and as the scale of an outer table they make every packed slot
# wider than 64 bits
large_units = st.sampled_from([Fraction(10 ** 25, 7), Fraction(-7, 10 ** 25),
                               Fraction(3 ** 50, 2 ** 40), Fraction(-(10 ** 21) - 1, 3),
                               Fraction(1), Fraction(-2)])
large_scales = st.sampled_from([Fraction(10 ** 25, 7), Fraction(3 ** 50, 2 ** 40),
                                Fraction(-(10 ** 21) - 1, 3)])


@pytest.mark.parametrize("packed", [False, True], ids=["sparse", "dense"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cyclic_defects_match_sums_on_both_sides_of_the_density_rule(packed, data):
    # a table with 4 nnz >= n^3 takes the packed path, any other the
    # contraction path; both give the triples of the definition, in the
    # basis e_i -> u_i e_i, against an outer table of width 1 or 2 whose
    # integers have more than 20 digits
    c = data.draw(st.one_of(dense_tensors(), dense_basis_algebras()) if packed
                  else perturbed_algebras())
    n = len(c)
    u = data.draw(st.lists(large_units, min_size=n, max_size=n))
    c = [[tuple(u[i] * u[j] / u[k] * x for k, x in enumerate(c[i][j])) for j in range(n)]
         for i in range(n)]
    table = int_table(c)
    assume((4 * sum(len(v) for row in table.rows for v in row.values()) >= n ** 3) == packed)
    outer, width = data.draw(outer_tables(c))
    scale = data.draw(large_scales)
    outer = [[tuple(scale * x for x in v) for v in row] for row in outer]
    paths, widths = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntTable, "_packed_cyclic_defects",
                   lambda self, o, f=IntTable._packed_cyclic_defects: paths.append(o) or f(self, o))
        mp.setattr(lie, "pack", lambda v, w: widths.append(w) or linalg.pack(v, w))
        assert table.cyclic_defects(int_table(outer).rows) == cyclic_defects_by_sums(
            c, outer, width)
        assert all(w > 64 for w in widths) and len(paths) == packed
        assert table.violations() == structure_violations(c)


@st.composite
def evaluations(draw):
    """A table c[i][j] of width-vectors drawn independently, most of them zero,
    so almost never antisymmetric, and lists S and T of up to three integer
    vectors, possibly empty.  A vector drawn on the free indices meets no row:
    in S those whose row c[i] is zero, in T those that no row holds."""
    n, width = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    entry, zero = st.sampled_from([0, 1, -1, Fraction(1, 2), 3]), (0,) * width
    c = [[tuple(draw(entry) for _ in range(width)) if draw(st.integers(0, 2)) == 2 else zero
          for _ in range(n)] for _ in range(n)]
    free_S = [i for i in range(n) if not any(map(any, c[i]))]
    free_T = [j for j in range(n) if not any(any(row[j]) for row in c)]

    def vector_list(free):
        return [tuple(draw(st.integers(-2, 2)) if k in support else 0 for k in range(n))
                for support in draw(st.lists(st.sampled_from([range(n), free]), max_size=3))]

    return c, vector_list(free_S), vector_list(free_T)


@settings(max_examples=120, deadline=None)
@given(evaluations())
def test_evaluate_matches_double_sum_oracle(drawn):
    # the oracle sums every (a, b) over every i and j, so a pair the support
    # test skips must have a zero value
    c, S, T = drawn
    table, width = int_table(c), len(c[0][0])
    sparse = [[{i: x for i, x in enumerate(v) if x} for v in vs] for vs in (S, T)]

    def values(found):
        return {ab: tuple(Fraction(v.get(m, 0), table.scale) for m in range(width))
                for ab, v in found.items()}

    assert values(table.evaluate(*sparse)) == evaluate_by_sums(c, S, T)
    assert values(table.evaluate(sparse[0])) == evaluate_by_sums(c, S)


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
    ad1 = so3().ad({0: 1})
    assert matvec(ad1, basis_vector(3, 1)) == basis_vector(3, 2)
    assert matvec(ad1, basis_vector(3, 2)) == tuple(-e for e in basis_vector(3, 1))


def test_ad_zero_and_abelian():
    assert so3().ad({}) == zeros(3, 3)
    assert from_brackets(4, {}).ad({1: 1}) == zeros(4, 4)


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_tensors(), perturbed_algebras(), dense_basis_algebras()), st.data())
def test_ad_and_centralizer_match_bracket_oracle(c, data):
    # sparse x (zero coordinates are skipped) and dense ones; the tensor need
    # not be a Lie algebra.  ad and centralizer read the integer row s x
    g = LieAlgebra(int_table(c), validate=False)
    x = data.draw(st.one_of(vectors(g.dim), st.integers(0, g.dim - 1).map(
        lambda i: basis_vector(g.dim, i))))
    s, xs = read_row(x)
    ad = ad_rows(c, from_pair((1, xs), g.dim))
    assert g.ad(xs) == Matrix(ad)
    assert list(basis_of(g.centralizer(xs))) == kernel_over_fractions(ad, g.dim)[0]


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
    assert from_brackets(3, {}).killing_form() == zeros(3, 3)


def test_killing_sl2_frozen_against_trace_oracle():
    g = sl2()
    K = g.killing_form()
    for i in range(3):
        for j in range(3):
            assert rows_of(K)[i][j] == killing_entry(dense_tensor(g), i, j)
    K = rows_of(K)
    assert K[2][2] == 8          # K(h,h)
    assert K[0][1] == 4          # K(e,f)
    assert K[0][0] == K[1][1] == K[0][2] == K[1][2] == 0


def test_killing_symmetric_and_ad_invariant():
    for g in (so3(), sl2(), heisenberg3()):
        K, tensor = g.killing_form(), dense_tensor(g)
        assert K.is_symmetric()
        n = g.dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    x, y, z = (basis_vector(n, t) for t in (a, b, c))
                    lhs = vdot(bracket(tensor, x, y), matvec(K, z))
                    rhs = vdot(y, matvec(K, bracket(tensor, x, z)))
                    assert lhs + rhs == 0


def test_semisimplicity():
    assert so3().is_semisimple()
    assert sl2().is_semisimple()
    assert not from_brackets(1, {}).is_semisimple()
    assert not from_brackets(4, {}).is_semisimple()
    assert not heisenberg3().is_semisimple()


# -- center / centralizer ----------------------------------------------------

def test_center():
    assert so3().center().dim == 0
    assert (from_brackets(3, {}).center()
            == Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}]))
    assert heisenberg3().center() == Subspace.span([basis_vector(3, 2)], 3)


@pytest.mark.parametrize("entry_id", catalog.ids())
def test_center_matches_dense_construction_on_catalog(entry_id):
    g = parse_document(catalog.get(entry_id).document).algebra
    assert list(basis_of(g.center())) == center_kernel(dense_tensor(g))[0]


@settings(max_examples=80, deadline=None)
@given(st.one_of(dense_tensors(), perturbed_algebras(), asymmetric_tensors(),
                 dense_basis_algebras(),
                 st.integers(1, 4).map(lambda n: dense_tensor(from_brackets(n, {})))))
def test_center_matches_dense_construction(c):
    g = LieAlgebra(int_table(c), validate=False)
    assert list(basis_of(g.center())) == center_kernel(c)[0]


def test_center_is_ideal_centralizer_is_subalgebra():
    for g in (so3(), sl2(), heisenberg3()):
        assert g.is_ideal(g.center())
        for i in range(g.dim):
            assert g.is_subalgebra(g.centralizer({i: 1}))


def test_centralizer():
    assert so3().centralizer({2: 1}) == Subspace.span([basis_vector(3, 2)], 3)
    assert so3().centralizer({}) == Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}])
    assert sl2().centralizer({2: 1}) == Subspace.span([basis_vector(3, 2)], 3)


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
