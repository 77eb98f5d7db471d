import operator
import random
import tracemalloc
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlie import (
    Bivector, CRData, InputError, KahlerCRData, LieAlgebra, PseudoPoissonData, build_extension,
    catalog, center_U, check_cr, check_kahler, check_left_symmetric, dump_document,
    ideal_complement_complex, left_symmetric_product, omega_radical, parse_document, run_checks,
    semisimple_exactness, sl2, so3,
)
from crlie import checks, crkahler, lie, linalg
from crlie.crkahler import induced_bracket
from crlie.inputdoc import parse_text
from crlie.lie import IntTable
from crlie.linalg import Matrix, Subspace, read_row
from crlie.report import fmt_vec

from oracles import (
    alternating, basis_vector, bilinear, block_diag, bracket, build_extension_lifted,
    center_U_ambient, check_cr_ambient, check_j_invariance_ambient, check_kahler_by_triples,
    check_left_symmetric_ambient, check_pseudo_poisson_ambient, coboundary_pi_ambient, column,
    crdata_error_ambient, dense_tensor, densify, det_over_fractions, direct_sum, from_brackets,
    from_columns, from_pair, h_coordinates, ideal_complement_complex_ambient, identity, int_table,
    is_zero, left_symmetric_product_by_solves, mat_add, mat_scale, matvec, omega,
    omega_radical_ambient, omega_rows, product_from_coordinates, rows_of,
    semisimple_exactness_full_system, supplementary_by_intersection, unscaled, vadd, vdot, vector,
    zeros,
)
from strategies import fractions
from test_golden import AFF_AFF_R_DENSE, CASES
from test_inputdoc_cli import DOCUMENTS, bench_families
from test_lie import heisenberg3


def entry_payloads(entry_id):
    return parse_document(catalog.get(entry_id).document)


def is_zero_product(p):
    return not any(p.P)


@pytest.fixture
def so3_kahler():
    return entry_payloads("so3_cr").kahler


@pytest.fixture
def rn_kahler():
    return entry_payloads("rn_flat").kahler


def test_records_are_read_only():
    """The fields of CRData, KahlerCRData, LeftSymmetricProduct and
    PseudoPoissonData refuse assignment, so the tables cached from them
    cannot go stale; the cached tables themselves still fill in."""
    k, d = entry_payloads("so3_cr").kahler, entry_payloads("so3_r_mixed").poisson
    p = left_symmetric_product(k)
    for record, field in ((k.cr, "H"), (k, "metric"), (p, "scale"), (d, "Lambda")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert "brackets" in vars(k.cr) and "gram" in vars(k)


# -- CR conditions -----------------------------------------------------------

def test_check_cr_so3_example_passes(so3_kahler):
    assert check_cr(so3_kahler.cr).passed


def test_check_cr_abelian_passes(rn_kahler):
    assert check_cr(rn_kahler.cr).passed


def test_check_cr_negative_fixture_fails_condition3():
    rep = check_cr(entry_payloads("affxaff_bad_j").cr)
    assert rep.result("cr.condition2").passed
    res = rep.result("cr.condition3")
    assert not res.passed
    first = res.witnesses[0]
    assert (first["x"], first["y"]) == ("e1", "e2")


def test_check_cr_passes_on_the_zero_algebra():
    g = LieAlgebra(IntTable.antisymmetric(0, {}))
    assert check_cr(CRData(g, Subspace.from_ints(0, []), Matrix.from_ints(0, 1, []))).passed


def test_two_dimensional_H_satisfies_conditions_automatically():
    """det(j|H) = 1 for any complex structure on a plane, so both
    integrability conditions hold for every 2-dimensional H.  Exhaustive
    search over sign variants on so(3) confirms no such negative fixture
    exists; the stored one uses a 4-dimensional H instead."""
    g = so3()
    planes = [(0, 1), (0, 2), (1, 2)]
    for (a, b), s in iproduct(planes, (1, -1)):
        H = Subspace.span([basis_vector(3, a), basis_vector(3, b)], 3)
        cols = [list((Fraction(0),) * 3) for _ in range(3)]
        cols[a][b] = Fraction(s)    # j e_a = s e_b
        cols[b][a] = Fraction(-s)   # j e_b = -s e_a
        j = from_columns([tuple(c) for c in cols])
        rep = check_cr(CRData(g, H, j))
        assert rep.passed


def test_crdata_rejects_bad_j():
    g = so3()
    H = Subspace.span([basis_vector(3, 0), basis_vector(3, 1)], 3)
    not_square_root = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        CRData(g, H, not_square_root)
    image_off_H = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        CRData(g, H, image_off_H)


# -- Kahler layer ------------------------------------------------------------

def test_check_kahler_so3(so3_kahler):
    rep = check_kahler(so3_kahler)
    assert rep.passed
    omega = so3_kahler.omega_matrix
    assert omega[0, 1] == -1
    assert all(omega[2, t] == 0 for t in range(3))


def test_check_kahler_abelian(rn_kahler):
    assert check_kahler(rn_kahler).passed


def test_check_kahler_broken_metric():
    rep = check_kahler(entry_payloads("so3_bad_metric").kahler)
    res = rep.result("kahler.omega_antisymmetric")
    assert not res.passed
    first = res.witnesses[0]
    assert (first["x"], first["y"]) == ("e1", "e2")


def test_metric_must_be_positive_definite(so3_kahler):
    with pytest.raises(ValueError, match="positive definite"):
        KahlerCRData(so3_kahler.cr, Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))


# -- left-symmetric product --------------------------------------------------

def test_left_symmetric_product_so3_is_zero(so3_kahler):
    p = left_symmetric_product(so3_kahler)
    assert is_zero_product(p)
    assert check_left_symmetric(so3_kahler, p).passed


def test_left_symmetric_product_abelian_is_zero(rn_kahler):
    p = left_symmetric_product(rn_kahler)
    assert is_zero_product(p)
    assert check_left_symmetric(rn_kahler, p).passed


def test_left_symmetric_product_aff_aff_nonzero():
    k = entry_payloads("aff_aff").kahler
    p = left_symmetric_product(k)
    assert not is_zero_product(p)
    rep = check_left_symmetric(k, p)
    assert rep.passed
    # omega|H nondegenerate, so identity (1) forces [x,y]' = [x,y] exactly
    comm = induced_bracket(p)
    g = k.algebra
    for a in range(4):
        for b in range(4):
            assert comm[(a, b)] == g.bracket(basis_vector(4, a), basis_vector(4, b))


# -- omega radical -----------------------------------------------------------

def test_omega_radical_so3(so3_kahler):
    L, rep = omega_radical(so3_kahler)
    assert L == Subspace.span([basis_vector(3, 2)], 3)
    assert rep.passed


def test_omega_radical_abelian_complement(rn_kahler):
    L, rep = omega_radical(rn_kahler)
    assert L == Subspace.span([basis_vector(4, 2), basis_vector(4, 3)], 4)
    assert rep.passed


def test_omega_radical_symplectic_case_trivial():
    L, rep = omega_radical(entry_payloads("aff_aff").kahler)
    assert L.dim == 0
    assert rep.passed


# -- center machinery --------------------------------------------------------

def test_center_U_so3(so3_kahler):
    U, rep = center_U(so3_kahler)
    assert U.dim == 0
    assert rep.passed


def test_center_U_abelian(rn_kahler):
    U, rep = center_U(rn_kahler)
    assert U == rn_kahler.H
    assert rep.passed


def test_center_U_heisenberg_center_off_H():
    g = heisenberg3()
    H = Subspace.span([basis_vector(3, 0), basis_vector(3, 1)], 3)
    j = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    k = KahlerCRData(CRData(g, H, j), identity(3))
    U, rep = center_U(k)
    assert U.dim == 0
    assert rep.passed


def heisenberg_r2_kahler():
    """heisenberg3 + R^2 with H = span(e1, e2, e4, e5), j e1 = -e4, j e2 = -e5:
    the center meets H in span(e4, e5), j moves it onto e1, e2, and U = H is
    neither commutative nor stabilizes H, as [e1, e2] = e3."""
    g = direct_sum(heisenberg3(), from_brackets(2, {}))
    H = Subspace.span([basis_vector(5, i) for i in (0, 1, 3, 4)], 5)
    j = Matrix([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0] * 5, [-1, 0, 0, 0, 0], [0, -1, 0, 0, 0]])
    return KahlerCRData(CRData(g, H, j), identity(5))


def test_center_U_failures_carry_witnesses():
    U, rep = center_U(heisenberg_r2_kahler())
    assert U.dim == 4
    assert [len(r.witnesses) for r in rep.results] == [1, 2]


# -- ideal-complement complex structures -------------------------------------

def test_ideal_complement_abelian(rn_kahler):
    ideal = Subspace.span([basis_vector(4, 2), basis_vector(4, 3)], 4)
    alg, jH, rep = ideal_complement_complex(rn_kahler.cr, ideal)
    assert alg == from_brackets(2, {})
    assert rep.passed


def test_ideal_complement_heisenberg_plus_r2():
    g = direct_sum(heisenberg3(), from_brackets(2, {}))
    H = Subspace.span([basis_vector(5, 3), basis_vector(5, 4)], 5)
    cols = [(0,) * 5] * 3 + [vector([0, 0, 0, 0, 1]), vector([0, 0, 0, -1, 0])]
    j = from_columns([vector(c) for c in cols])
    ideal = Subspace.span([basis_vector(5, t) for t in range(3)], 5)
    alg, _, rep = ideal_complement_complex(CRData(g, H, j), ideal)
    assert alg == from_brackets(2, {})
    assert rep.passed


def test_ideal_complement_rejects_non_ideal(so3_kahler):
    with pytest.raises(ValueError, match="not an ideal"):
        ideal_complement_complex(so3_kahler.cr,
                                 Subspace.span([basis_vector(3, 2)], 3))


# -- extension construction --------------------------------------------------

def base_r2():
    return entry_payloads("heisenberg").kahler


def alpha_table(n, alpha):
    """The table of alpha = {(a, b): rationals} as the parser reads it, each
    pair mirrored."""
    return IntTable.antisymmetric(n, {ab: read_row(v) for ab, v in alpha.items()})


def lifted_extension(base, alpha):
    """The lifted algebra G + V from the oracle, and its report, which must
    equal the one `build_extension` reads off the base tables."""
    data, rep = build_extension_lifted(base, alpha)
    assert build_extension(base, alpha).to_dict() == rep.to_dict()
    return data, rep


def test_extension_with_zero_alpha_is_direct_sum():
    data, rep = lifted_extension(base_r2(), alpha_table(2, {}))
    assert rep.passed
    assert data.algebra == from_brackets(3, {})


def test_extension_heisenberg_type():
    data, rep = lifted_extension(base_r2(), alpha_table(2, {(0, 1): [1]}))
    assert rep.passed
    assert data.algebra == heisenberg3()
    assert check_kahler(data).passed
    assert check_cr(data.cr).passed


def test_extension_form_must_be_antisymmetric_as_well_as_closed():
    # on an abelian base every form is closed; with the metric diag(2, 1) the
    # rotation j gives w = [[0, -2], [1, 0]], which is not antisymmetric
    base = base_r2()
    k = KahlerCRData(base.cr, Matrix([[2, 0], [0, 1]]))
    _, rep = lifted_extension(k, alpha_table(2, {}))
    assert rep.result("extension.jacobi").passed
    assert not rep.result("extension.omega_closed").passed
    assert check_kahler(k).result("kahler.omega_closed").passed


def test_extension_detects_non_j_invariant_alpha():
    k = entry_payloads("r4_ext_bad_alpha").kahler
    data, rep = lifted_extension(k, alpha_table(4, {(0, 2): [1]}))
    assert data is not None
    assert rep.result("extension.jacobi").passed
    assert rep.result("extension.cyclic").passed
    res = rep.result("extension.alpha_j_invariant")
    assert not res.passed
    assert res.witnesses[0] == {"x": "e1", "y": "e3"}


def test_extension_rejects_inconsistent_alpha():
    # alpha is read like the brackets, so a pair given both ways must be
    # antisymmetric, and a conflict is an input error
    doc = catalog.get("heisenberg").document
    doc = {**doc, "extension": {**doc["extension"], "alpha": [
        {"x": 1, "y": 2, "result": ["1"]}, {"x": 2, "y": 1, "result": ["1"]}]}}
    with pytest.raises(InputError) as exc:
        parse_document(doc)
    assert exc.value.diagnostics == [
        "extension.alpha: antisymmetry violated at (1,2,1): c=1 vs c=1"]


# -- semisimple exactness ----------------------------------------------------

def test_exactness_so3(so3_kahler):
    alpha, X, L, rep = semisimple_exactness(so3_kahler)
    assert rep.passed
    assert from_pair(alpha, 3) == vector([0, 0, -1])    # alpha = -e3*
    assert from_pair(X, 3) == vector([0, 0, "1/2"])     # X = e3 / 2
    assert L == Subspace.span([basis_vector(3, 2)], 3)


def test_exactness_scaled_metric_scales_alpha_but_not_L(so3_kahler):
    scaled = KahlerCRData(so3_kahler.cr, mat_scale(2, so3_kahler.metric))
    alpha, X, L, rep = semisimple_exactness(scaled)
    assert rep.passed
    assert from_pair(alpha, 3) == vector([0, 0, -2])
    assert from_pair(X, 3) == vector([0, 0, 1])
    assert L == Subspace.span([basis_vector(3, 2)], 3)


def rebased(k, P):
    """k in the basis of the columns of P: c'[a][b] = P^-1 [P e_a, P e_b],
    H' = P^-1 H, j' = P^-1 j P and M' = P^T M P."""
    g, n, p_inv = k.algebra, k.algebra.dim, _inverse(P)
    c = [[matvec(p_inv, g.bracket(column(P, a), column(P, b))) for b in range(n)]
         for a in range(n)]
    H = Subspace.span([matvec(p_inv, h) for h in k.H.basis], n)
    return KahlerCRData(CRData(LieAlgebra(int_table(c), names=g.names), H, p_inv * k.j * P),
                        P.transpose() * k.metric * P)


def exactness_inputs():
    """The so3_cr and sl2 entries, each also in five seeded det-1 integer
    bases (every draw `unimodular` makes is st.integers(-1, 1), taken here
    from a seeded generator)."""
    inputs = []
    for entry_id in ("so3_cr", "sl2"):
        k = entry_payloads(entry_id).kahler
        inputs.append(k)
        for seed in range(5):
            rng = random.Random(seed)
            inputs.append(rebased(k, unimodular(lambda _: rng.randint(-1, 1), 3)))
    return inputs


def test_exactness_killing_dual_identity_on_all_pairs():
    # the report, which no longer re-checks the equations, must pass and
    # K(X, [x, y]) = w(x, y) on every basis pair
    for k in exactness_inputs():
        alpha, X, L, rep = semisimple_exactness(k)
        assert rep.passed
        g, K, X = k.algebra, k.algebra.killing_form(), from_pair(X, 3)
        for a in range(3):
            for b in range(3):
                x, y = basis_vector(3, a), basis_vector(3, b)
                assert vdot(X, matvec(K, g.bracket(x, y))) == omega(k, x, y)


def test_exactness_matches_full_system_oracle():
    # the library solves only the equations of pairs with a nonzero bracket
    # or w, the oracle all C(n, 2) of them.  On so3_cr + sl2 the cross pairs
    # have zero brackets; coupling the two metrics makes w nonzero on some of
    # them, and then there is no solution
    k1, k2 = (entry_payloads(e).kahler for e in ("so3_cr", "sl2"))
    g = direct_sum(k1.algebra, k2.algebra)
    H = Subspace.span([h + (0,) * 3 for h in k1.H.basis] + [(0,) * 3 + h for h in k2.H.basis], 6)
    cr = CRData(g, H, block_diag(k1.j, k2.j))
    metric = block_diag(k1.metric, k2.metric)
    coupling = Matrix([[Fraction(1, 4) * (abs(a - b) == 3) for b in range(6)] for a in range(6)])
    inputs = exactness_inputs() + [
        p.kahler for p in map(parse_document, ORACLE_DOCS.values())
        if p.kahler is not None and p.algebra.is_semisimple()]
    inputs += [KahlerCRData(cr, metric), KahlerCRData(cr, mat_add(metric, coupling))]
    assert [semisimple_exactness(k)[0] is None for k in inputs[-2:]] == [False, True]
    for k in inputs:
        (alpha, X, L, rep), want = semisimple_exactness(k), semisimple_exactness_full_system(k)
        n, basis = k.algebra.dim, None if L is None else list(L.basis)
        assert (from_pair(alpha, n), from_pair(X, n), basis) == want[:3]
        assert rep.to_dict() == want[3].to_dict()


def test_exactness_sl2():
    alpha, X, L, rep = semisimple_exactness(entry_payloads("sl2").kahler)
    assert rep.passed
    assert from_pair(alpha, 3) == vector([0, 0, -1])
    assert from_pair(X, 3) == vector([0, 0, "-1/8"])
    assert L == Subspace.span([basis_vector(3, 2)], 3)


def test_exactness_refuses_non_semisimple(rn_kahler):
    # run_checks alone gates on semisimplicity, so a direct call raises
    for exactness in (semisimple_exactness, semisimple_exactness_full_system):
        with pytest.raises(ValueError, match="^algebra is not semisimple; exactness"):
            exactness(rn_kahler)


def test_radical_equal_ker_j_and_ideal_implies_not_semisimple():
    # entries where the omega-radical equals ker j and is an ideal must not
    # be semisimple (contrapositive exercised on the abelian and extension
    # entries)
    for entry_id in ("rn_flat", "heisenberg"):
        k = entry_payloads(entry_id).kahler
        L, _ = omega_radical(k)
        g = k.algebra
        from crlie.linalg import kernel
        if L == kernel(k.j) and g.is_ideal(L):
            assert not g.is_semisimple()


def test_radical_subalgebra_on_randomized_valid_abelian_perturbations():
    rng = random.Random(7)
    base = entry_payloads("rn_flat").kahler
    g = base.algebra
    for _ in range(25):
        m = _random_invertible(rng, 4)
        minv = _inverse(m)
        j2 = m * base.j * minv
        H2 = Subspace.span([matvec(m, h) for h in base.H.basis], 4)
        metric2 = minv.transpose() * minv
        k2 = KahlerCRData(CRData(g, H2, j2), metric2)
        assert check_kahler(k2).passed
        _, rep = omega_radical(k2)
        assert rep.passed


def _random_invertible(rng, n):
    while True:
        m = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(n)])
        if det_over_fractions(rows_of(m)) != 0:
            return m


def _inverse(m):
    from crlie.linalg import solve
    n = m.rows
    cols = [from_pair(solve(m, (1, {i: 1})), n) for i in range(n)]
    return from_columns(cols)


# -- equivalence with the oracles --------------------------------------------

KAHLER_INPUTS = {entry_id: k for entry_id in catalog.ids()
                 if (k := entry_payloads(entry_id).kahler) is not None}
KAHLER_INPUTS["aff_aff_r_dense"] = parse_document(AFF_AFF_R_DENSE).kahler

small = fractions(-2, 2, max_denominator=3)


def assert_h_tables_match_definitions(d, k=None):
    """The tables on H of d (and of k) hold only nonzero entries and equal
    their definitions: B[a][b] = s [h_a, h_b], row a of jH the H-coordinates
    of j h_a times its scale, omega_images[i][t] = w(e_i, h_t) and
    gram[a][b] = w(h_a, h_b)."""
    n, basis, c = d.algebra.dim, d.H.basis, dense_tensor(d.algebra)
    (sB, B), (sJ, J) = d.brackets, d.jH
    assert all(v and all(v.values()) for row in B for v in row.values())
    assert all(all(row.values()) for row in J)
    assert ([[unscaled(densify(row.get(b, {}), n), sB) for b in range(len(basis))] for row in B]
            == [[bracket(c, x, y) for y in basis] for x in basis])
    assert ([unscaled(densify(row, len(basis)), sJ) for row in J]
            == [h_coordinates(basis, matvec(d.j, h)) for h in basis])
    if k is not None:
        assert rows_of(k.omega_images) == [tuple(omega(k, basis_vector(n, i), h) for h in basis)
                                           for i in range(n)]
        assert rows_of(k.gram) == [tuple(omega(k, x, y) for y in basis) for x in basis]


def assert_kahler_layer_matches_oracles(k, product=None):
    """check_cr, check_kahler, the tables on H, the product table,
    check_left_symmetric (on `product`, default the constructed one) and
    omega_radical agree with their definition-level oracles, witnesses in
    order."""
    assert_h_tables_match_definitions(k.cr, k)
    assert check_cr(k.cr).to_dict() == check_cr_ambient(k.cr).to_dict()
    assert check_kahler(k).to_dict() == check_kahler_by_triples(k).to_dict()
    constructed = left_symmetric_product(k)
    assert constructed == left_symmetric_product_by_solves(k)
    assert all(v and all(v.values()) for row in constructed.P for v in row.values())
    product = product or constructed
    assert (check_left_symmetric(k, product).to_dict()
            == check_left_symmetric_ambient(k, product).to_dict())
    (L, rep), (want_L, want) = omega_radical(k), omega_radical_ambient(k)
    assert list(L.basis) == want_L and rep.to_dict() == want.to_dict()


@pytest.mark.parametrize("name", sorted(KAHLER_INPUTS))
def test_kahler_layer_matches_oracles_on_catalog(name):
    assert_kahler_layer_matches_oracles(KAHLER_INPUTS[name])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_left_symmetric_checks_match_oracle_on_perturbed_products(data):
    # add q to the H-coordinates of 1-3 entries, optionally to the transposed entry too;
    # a symmetric change keeps xy - yx, so identity1 and Jacobi still pass and
    # identity2 is reached
    k = KAHLER_INPUTS[data.draw(st.sampled_from(sorted(KAHLER_INPUTS)))]
    assert_kahler_layer_matches_oracles(k, perturbed_product(data, k))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_left_symmetric_checks_match_oracles_on_perturbed_aff_power(data):
    # aff(R)^6 (m = 12): most triples a < b, c lie across the blocks and have
    # no nonzero term, so identity (2) skips them
    k = aff_power_kahler(6)
    product = perturbed_product(data, k) if data.draw(st.booleans()) else left_symmetric_product(k)
    assert (check_left_symmetric(k, product).to_dict()
            == check_left_symmetric_ambient(k, product).to_dict())


def test_identity2_reaches_a_triple_through_the_induced_bracket_alone():
    # h_0 h_1 = h_2 h_2 = h_2 and every other product zero: C[0][1] = h_2,
    # Jacobi holds, and the triple (h_0, h_1, h_2) fails identity (2) only
    # through (xy - yx)z, with z = h_2 outside the nonzero products of h_0 and h_1
    k = KAHLER_INPUTS["aff_aff"]
    m = k.H.dim
    coords = [[(Fraction(0),) * m for _ in range(m)] for _ in range(m)]
    coords[0][1] = coords[2][2] = basis_vector(m, 2)
    product = product_from_coordinates(k.H, coords)
    rep = check_left_symmetric(k, product)
    assert rep.to_dict() == check_left_symmetric_ambient(k, product).to_dict()
    fmt = [fmt_vec(k.algebra.names, h, k.H.scale) for h in k.H.ints]
    assert rep.result("leftsym.jacobi_induced").passed
    witnesses = rep.result("leftsym.identity2").witnesses
    assert {"x": fmt[0], "y": fmt[1], "z": fmt[2]} in witnesses


@pytest.mark.parametrize("k", [4, 8, 16])
def test_identity2_sums_only_the_triples_its_supports_reach(k, monkeypatch):
    # each aff(R) block has 2 nonzero products, and one triple per block can
    # carry a term of identity (2): with one contraction per block for C and
    # one for identity (1), that is 3k.  A scan of the pairs a < b made 76,
    # 312 and 1,264 contractions here
    kd = aff_power_kahler(k)
    product, calls = left_symmetric_product(kd), []
    monkeypatch.setattr(crkahler, "contraction",
                        lambda terms, f=crkahler.contraction: calls.append(1) or f(terms))
    rep = check_left_symmetric(kd, product)
    assert rep.passed and rep.result("leftsym.identity2").passed
    assert len(calls) <= 3 * k


def perturbed_product(data, k):
    """The product of k with q added to the H-coordinates of 1-3 entries,
    optionally to the transposed entry too."""
    m, p = k.H.dim, left_symmetric_product(k)
    coords = [[unscaled(densify(row.get(b, {}), m), p.scale) for b in range(m)] for row in p.P]
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        a, b = data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))
        q = vector(data.draw(st.lists(small, min_size=m, max_size=m)))
        for x, y in ({(a, b), (b, a)} if data.draw(st.booleans()) else {(a, b)}):
            coords[x][y] = vadd(coords[x][y], q)
    return product_from_coordinates(k.H, coords)


half = fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=4)


@st.composite
def coupled_metrics(draw):
    """aff_aff with the metric [[I, B], [B^T, I]], B = [[p, -q], [q, p]]: B
    commutes with the rotation j, so omega stays antisymmetric, and
    p^2 + q^2 <= 1/2 keeps the metric positive definite; closedness fails
    unless B = 0."""
    p, q = draw(half), draw(half)
    metric = Matrix([[1, 0, p, -q], [0, 1, q, p], [p, q, 1, 0], [-q, p, 0, 1]])
    return KahlerCRData(KAHLER_INPUTS["aff_aff"].cr, metric)


@st.composite
def random_metrics(draw):
    """A^T A + I for a random A with entries in {-1, 0, 1}: positive definite,
    and omega is usually neither antisymmetric nor closed."""
    k = KAHLER_INPUTS[draw(st.sampled_from(sorted(KAHLER_INPUTS)))]
    n = k.algebra.dim
    A = Matrix([[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)])
    return KahlerCRData(k.cr, mat_add(A.transpose() * A, identity(n)))


@settings(max_examples=40, deadline=None)
@given(st.one_of(coupled_metrics(), random_metrics()))
def test_kahler_layer_matches_oracles_on_coupled_metrics(k):
    assert_kahler_layer_matches_oracles(k)


def unimodular(draw, n):
    """L U with unit diagonals and the other entries of L, U in {-1, 0, 1}:
    a dense integer matrix of determinant 1."""
    L = Matrix([[draw(st.integers(-1, 1)) if b < a else int(a == b) for b in range(n)]
                for a in range(n)])
    U = Matrix([[draw(st.integers(-1, 1)) if b > a else int(a == b) for b in range(n)]
                for a in range(n)])
    return L * U


CR_ALGEBRAS = {
    "so3+so3": direct_sum(so3(), so3()),
    "aff_aff+R": direct_sum(entry_payloads("aff_aff").algebra, from_brackets(1, {})),
    "sl2+heisenberg": direct_sum(sl2(), heisenberg3()),
}


@st.composite
def dense_cr_data(draw, full=False):
    """A Lie algebra in the basis P e_i of a dense unimodular P, H spanned by
    the first m columns of another one, R, and j = R (S J0 S^-1 + 0) R^-1:
    the rotation blocks J0 conjugated by a third, S, on H and zero off H.
    With `full`, H is the whole algebra."""
    names = sorted(a for a in CR_ALGEBRAS if not (full and CR_ALGEBRAS[a].dim % 2))
    g = CR_ALGEBRAS[draw(st.sampled_from(names))]
    n = g.dim
    P = unimodular(draw, n)
    p_inv = _inverse(P)
    g = LieAlgebra(int_table([[matvec(p_inv, g.bracket(column(P, a), column(P, b)))
                               for b in range(n)] for a in range(n)]))
    m = n if full else draw(st.sampled_from([d for d in (2, 4, 6) if d <= n]))
    R, S = unimodular(draw, n), unimodular(draw, m)
    J0 = Matrix([[(b == a + 1) - (a == b + 1) if a // 2 == b // 2 else 0 for b in range(m)]
                 for a in range(m)])
    j = S * J0 * _inverse(S)
    if m < n:
        j = block_diag(j, zeros(n - m, n - m))
    return CRData(g, Subspace.span([column(R, a) for a in range(m)], n),
                  R * j * _inverse(R))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(sorted(KAHLER_INPUTS)).map(KAHLER_INPUTS.get),
                 dense_cr_data().map(lambda d: KahlerCRData(d, identity(d.algebra.dim)))))
def test_omega_restricted_to_H_never_degenerate_for_valid_data(k):
    # x in H with <x, j(H)> = 0 forces x = 0 because j(H) = H and the metric
    # is positive definite; the nondegeneracy check, read from the pivots of
    # the reduced [G | I], can only fire on data that bypassed construction
    assert det_over_fractions(rows_of(k.gram)) != 0
    assert check_kahler(k).result("kahler.omega_h_nondegenerate").passed


@st.composite
def subspaces_around(draw, H):
    """Subspaces on both sides of H + U = G direct: {0}, G, H, the coordinate
    complement of the pivots of H (a supplement), that complement with one
    vector dropped or with a vector of H added, and spans of a few vectors
    with entries in {-1, 0, 1}."""
    n = H.ambient_dim
    free = [{f: 1} for f in range(n) if f not in H.pivots]
    small = st.dictionaries(st.integers(0, n - 1), st.sampled_from([-1, 1]))
    rows = draw(st.sampled_from([[], [{k: 1} for k in range(n)], list(H.ints), free, free[1:],
                                 free + list(H.ints[:1])]) | st.lists(small, max_size=n))
    return Subspace.from_ints(n, rows)


@settings(max_examples=60, deadline=None)
@given(dense_cr_data() | dense_cr_data(full=True), st.data())
def test_supplementary_rank_test_matches_intersection(d, data):
    # every subspace of an abelian algebra is an ideal, so a drawn U reaches
    # the supplementary test of ideal_complement_complex as well as that of
    # PseudoPoissonData; both raise as before exactly when H + U = G is not direct
    n = d.algebra.dim
    cr = CRData(from_brackets(n, {}), d.H, d.j)
    U = data.draw(subspaces_around(d.H))
    direct = supplementary_by_intersection(d.H, U)
    for build, message in [
            (lambda: PseudoPoissonData(cr.algebra, cr.H, U, cr.j, alternating(Bivector, n)),
             "H and U must be supplementary"),
            (lambda: ideal_complement_complex(cr, U), "ideal is not supplementary to H")]:
        try:
            build()
        except ValueError as e:
            assert (direct, str(e)) == (False, message)
        else:
            assert direct
    assert_ideal_complement_matches_oracle(cr, U)


@pytest.mark.parametrize("entry_id", [e for e in catalog.ids()
                                      if "cr" in catalog.get(e).document])
def test_check_cr_matches_ambient_oracle_on_catalog(entry_id):
    d = entry_payloads(entry_id).cr
    assert check_cr(d).to_dict() == check_cr_ambient(d).to_dict()


@settings(max_examples=60, deadline=None)
@given(dense_cr_data() | dense_cr_data(full=True))
def test_check_cr_matches_ambient_oracle_in_dense_bases(d):
    assert check_cr(d).to_dict() == check_cr_ambient(d).to_dict()
    assert_h_tables_match_definitions(d)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("family", ["aff_power", "heisenberg"])
def test_full_h_with_the_unit_metric_changes_no_basis(family, k):
    # H = G has the unit basis with scale 1 as its RREF basis, and the metric
    # is I, so every product that forms w and its images has an identity factor
    # and is its other factor, and the tables on H are those of the algebra and j
    p = parse_document(getattr(bench_families(), family)(k).document)
    d, kd = p.cr, p.kahler
    assert kd.omega_matrix is kd.j
    assert kd.gram is kd.omega_images is kd.omega_matrix
    assert d.brackets[1] is d.algebra.table.rows
    assert d.jH[1] == d.j.transpose().ints
    assert_h_tables_match_definitions(d, kd)


@pytest.mark.parametrize("k", [1, 3])
def test_proper_h_builds_its_tables_on_the_rref_basis(k):
    p = parse_document(bench_families().so3_power(k).document)
    d, kd = p.cr, p.kahler
    assert d.H.dim < d.algebra.dim
    assert d.brackets[1] is not d.algebra.table.rows
    assert len(d.jH[1]) == d.H.dim < d.j.cols
    assert_h_tables_match_definitions(d, kd)


@pytest.mark.parametrize("k", [1, 3])
def test_cr_condition2_tests_no_zero_difference_for_membership(k, monkeypatch):
    # on so(3)^k, [h_a, h_b] = [j h_a, j h_b] within a block and pairs of
    # different blocks commute, so every difference of (2) is 0, which lies
    # in the proper H without a membership test
    d = parse_document(bench_families().so3_power(k).document).cr
    assert d.H.dim < d.algebra.dim
    calls, contains = [], Subspace.contains
    monkeypatch.setattr(Subspace, "contains", lambda self, v: calls.append(v) or contains(self, v))
    assert check_cr(d).passed
    assert calls == []


def test_h_brackets_are_computed_once_per_crdata(monkeypatch):
    # every integer table of the CR and Kahler data is built once, however
    # many checks read it
    builds = []
    for cls, name in [(CRData, "brackets"), (CRData, "jH"), (KahlerCRData, "h_basis"),
                      (KahlerCRData, "omega_images"), (KahlerCRData, "gram"),
                      (KahlerCRData, "gram_reduced")]:
        build = getattr(cls, name).func
        prop = cached_property(lambda self, build=build, name=name:
                               builds.append(name) or build(self))
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    k = parse_document(AFF_AFF_R_DENSE).kahler
    table = k.algebra.table
    check_cr(k.cr)
    check_kahler(k)
    check_left_symmetric(k, left_symmetric_product(k))
    check_cr(k.cr)
    assert sorted(builds) == sorted(["brackets", "jH", "h_basis", "omega_images", "gram",
                                     "gram_reduced"])
    assert k.algebra.table is table


def test_omega_defects_are_computed_once_with_an_extension(monkeypatch):
    # check_kahler and build_extension read the same antisymmetry and
    # closedness witnesses
    builds = []
    build = KahlerCRData.omega_defects.func
    prop = cached_property(lambda self: builds.append(self) or build(self))
    prop.__set_name__(KahlerCRData, "omega_defects")
    monkeypatch.setattr(KahlerCRData, "omega_defects", prop)
    p = entry_payloads("heisenberg")
    rep = run_checks(p)
    assert rep.result("extension.omega_closed").passed
    assert rep.result("kahler.omega_closed").passed
    assert len(builds) == 1 and builds[0] is p.kahler


@pytest.mark.parametrize("family", ["aff_power", "so3_power", "heisenberg"])
def test_cyclic_defects_sum_no_triple_on_sparse_families(family, monkeypatch):
    # each bracket [e_a, e_b] lies on one basis vector e_t of the block of e_a
    # and e_b, and the rows of every third e_k, in c, in the closedness table
    # and in an alpha on the pairs that j rotates, miss e_t (so(3): the row of
    # e_t holds e_a and e_b; aff(R): a block has no third vector).  So Jacobi
    # validation, dw = 0 and the extension's Jacobiator visit no triple
    p = parse_document(getattr(bench_families(), family)(4).document)
    k, table = p.kahler, p.algebra.table
    alpha = p.extension or IntTable.antisymmetric(p.algebra.dim, {
        (a, b): (1, {0: 1}) for a, row in enumerate(k.cr.j.ints) for b in row if a < b})
    calls = []
    monkeypatch.setattr(lie, "contraction",
                        lambda terms: calls.append(terms) or linalg.contraction(terms))
    assert table.cyclic_defects(table.rows) == []
    assert k.omega_defects == ([], [])
    assert table.cyclic_defects(alpha.rows) == []
    assert calls == []


@pytest.mark.parametrize("k", [2, 5])
def test_evaluate_contracts_no_zero_pair_on_heisenberg(k, monkeypatch):
    # the base table of heisenberg(k) is empty, so no pair of H or of U meets a
    # row: a fresh CRData.brackets and center_U contract nothing.  alpha is
    # nonzero only on the k pairs (2i, 2i+1), and j maps e_2i and e_2i+1 into
    # each other's span, so alpha_j_invariant contracts one pair per nonzero
    # alpha pair, and the Jacobi and closedness tests none
    p = parse_document(bench_families().heisenberg(k).document)
    cr = CRData(p.algebra, p.cr.H, p.cr.j)
    calls = []
    monkeypatch.setattr(lie, "contraction",
                        lambda terms: calls.append(terms) or linalg.contraction(terms))
    assert cr.brackets == (1, [{} for _ in range(2 * k)])
    assert center_U(p.kahler)[1].passed
    assert calls == []
    assert build_extension(p.kahler, p.extension).passed
    assert len(calls) == k


@settings(max_examples=20, deadline=None)
@given(dense_cr_data(full=True), st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_extension_by_a_coboundary_passes_jacobi_and_cyclic(d, theta):
    # alpha(x, y) = theta([x, y]) is a 2-cocycle, so Jacobi and the cyclic
    # condition hold, although single cyclic terms theta([[x, y], z]) do not vanish
    n, c = d.algebra.dim, dense_tensor(d.algebra)
    alpha = {(a, b): [vdot(vector(theta), c[a][b])]
             for a in range(n) for b in range(a + 1, n)}
    rep = build_extension(KahlerCRData(d, identity(n)), alpha_table(n, alpha))
    assert rep.result("extension.jacobi").passed
    assert rep.result("extension.cyclic").passed


@settings(max_examples=60, deadline=None)
@given(dense_cr_data(full=True), st.integers(1, 3), st.data())
def test_extension_matches_lifted_oracle_in_dense_bases(d, v_dim, data):
    # optionally in the basis q_i e_i, so that j carries denominators; alpha
    # is a coboundary theta([x, y]) (a 2-cocycle, so Jacobi holds) or drawn
    # at random (Jacobi mostly fails), optionally averaged with alpha(jx, jy)
    # to make it j-invariant; each pair is given as (a, b) or as (b, a) with
    # the opposite value
    n = d.algebra.dim
    if data.draw(st.booleans()):
        d = rescaled(d, data.draw(st.lists(units, min_size=n, max_size=n)))
    g = d.algebra
    values = st.lists(small, min_size=v_dim, max_size=v_dim)
    if data.draw(st.booleans()):
        theta = Matrix([data.draw(values) for _ in range(n)])
        c = dense_tensor(g)
        table = [[matvec(theta.transpose(), c[a][b]) for b in range(n)] for a in range(n)]
    else:
        table = [[None] * n for _ in range(n)]
        for a in range(n):
            table[a][a] = (0,) * v_dim
            for b in range(a + 1, n):
                table[a][b] = vector(data.draw(values))
                table[b][a] = tuple(-x for x in table[a][b])
    if data.draw(st.booleans()):
        table = [[vadd(table[a][b], bilinear(table, column(d.j, a), column(d.j, b), v_dim))
                  for b in range(n)] for a in range(n)]
    alpha = {}
    for a in range(n):
        for b in range(a + 1, n):
            if not is_zero(table[a][b]) or data.draw(st.booleans()):
                key = (b, a) if data.draw(st.booleans()) else (a, b)
                alpha[key] = table[key[0]][key[1]]
    lifted_extension(KahlerCRData(d, identity(n)), alpha_table(n, alpha))


@pytest.mark.parametrize("entry_id", [e for e in catalog.ids()
                                      if "extension" in catalog.get(e).document])
def test_extension_matches_lifted_oracle_on_catalog(entry_id):
    p = entry_payloads(entry_id)
    lifted_extension(p.kahler, p.extension)


def omega_extension_documents() -> dict:
    """{name: document} for each catalog entry and seed-1 workload document
    with H = G and an antisymmetric w, its extension block replaced by the
    central extension G + R by w: V_dim 1 and alpha(e_a, e_b) = w(e_a, e_b)."""
    out = {}
    for name, doc in DOCUMENTS.items():
        k = parse_document(doc).kahler
        if k is None or k.H.dim != k.algebra.dim:
            continue
        om, n = omega_rows(k), k.algebra.dim
        if any(om[a][b] != -om[b][a] for a in range(n) for b in range(a, n)):
            continue
        alpha = [{"x": a + 1, "y": b + 1, "result": [str(om[a][b])]}
                 for a in range(n) for b in range(a + 1, n) if om[a][b]]
        out[name] = {**doc, "extension": {"V_dim": 1, "alpha": alpha}}
    return out


def test_closedness_is_the_jacobi_identity_of_the_extension_by_omega():
    # dw = 0 is the Jacobi identity of G + R by w: extension.jacobi fails
    # exactly on the triples a < b < t among the kahler.omega_closed witnesses
    failing = set()
    for name, doc in omega_extension_documents().items():
        p = parse_document(doc)
        rep, index = run_checks(p), {x: i + 1 for i, x in enumerate(p.algebra.names)}
        closed = {str(t) for t in (tuple(index[dict(w)[v]] for v in "xyz")
                                   for w in rep.result("kahler.omega_closed").witnesses)
                  if t == tuple(sorted(t))}
        jacobi = {dict(w)["indices"] for w in rep.result("extension.jacobi").witnesses}
        assert jacobi == closed, name
        assert rep.result("extension.jacobi").passed == rep.result("kahler.omega_closed").passed
        if closed:
            failing.add(name.rpartition(":")[2].split("@")[0])
    # the coupled metrics of reject_dense are the documents that fail closedness
    assert failing == {"aff_coupled^2", "aff_coupled^3", "aff_coupled^4"}


def test_extension_cost_does_not_grow_with_v_dim():
    # nothing of size V_dim is built, by the parser or by the checks; G + V
    # would have (2 + 10^6)^3 structure constants here
    doc = catalog.get("heisenberg").document
    doc = {**doc, "extension": {"V_dim": 1000000, "alpha": []}}
    tracemalloc.start()
    try:
        rep = run_checks(parse_document(doc))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.result("extension.omega_closed").passed
    assert peak < 2 ** 20


def aff_power_kahler(k):
    """aff(R)^k, [e_{2i-1}, e_{2i}] = e_{2i}, with H = G, the rotation j of
    each block and the metric I."""
    n, rotation = 2 * k, Matrix([[0, -1], [1, 0]])
    g = from_brackets(n, {(2 * i, 2 * i + 1): basis_vector(n, 2 * i + 1)
                                     for i in range(k)})
    j = rotation
    for _ in range(k - 1):
        j = block_diag(j, rotation)
    full = Subspace.from_ints(n, ({i: 1} for i in range(n)))
    return KahlerCRData(CRData(g, full, j), identity(n))


def test_h_tables_grow_with_their_nonzero_entries():
    # the tables on H of aff(R)^k store exactly the nonzero entries of the
    # brackets [h_a, h_b], of the H-coordinates of j h_a and of the products,
    # and that count is linear in k, where the dense B and P have (2k)^3 entries
    counts = {}
    for k in (3, 6, 12):
        data = aff_power_kahler(k)
        assert check_kahler(data).passed
        (_, B), (_, J), p = data.cr.brackets, data.cr.jH, left_symmetric_product(data)
        stored = [sum(len(v) for row in B for v in row.values()),
                  sum(len(row) for row in J),
                  sum(len(v) for row in p.P for v in row.values())]
        basis, c = data.H.basis, dense_tensor(data.algebra)
        nonzero = [sum(bool(e) for x in basis for y in basis for e in bracket(c, x, y)),
                   sum(bool(e) for h in basis for e in h_coordinates(basis, matvec(data.j, h))),
                   sum(bool(x) for row in p.P for v in row.values() for x in v.values())]
        assert stored == nonzero
        assert all(stored)
        counts[k] = stored
    assert counts[6] == [2 * c for c in counts[3]]
    assert counts[12] == [4 * c for c in counts[3]]


# -- the integer kernel on tables with denominators ----------------------------

units = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(-5, 4),
                         Fraction(1)])


def rescaled(d, q, metric=None):
    """d (and the metric) in the basis q_i e_i: c'[a][b][t] = q_a q_b / q_t
    c[a][b][t], coordinates v'_i = v_i / q_i, j' = Q^-1 j Q and M' = Q M Q.
    c, the RREF rows of H, j and the metric then carry denominators."""
    g, n, c0 = d.algebra, d.algebra.dim, dense_tensor(d.algebra)
    c = [[tuple(q[a] * q[b] / q[t] * e for t, e in enumerate(c0[a][b])) for b in range(n)]
         for a in range(n)]
    H = Subspace.span([tuple(e / q[i] for i, e in enumerate(h)) for h in d.H.basis], n)
    j = Matrix([[d.j[r, s] * q[s] / q[r] for s in range(n)] for r in range(n)])
    cr = CRData(LieAlgebra(int_table(c), names=g.names), H, j)
    if metric is None:
        return cr
    return KahlerCRData(cr, Matrix([[q[r] * metric[r, s] * q[s] for s in range(n)]
                                    for r in range(n)]))


@st.composite
def rescaled_cr_data(draw):
    d = draw(dense_cr_data())
    return rescaled(d, draw(st.lists(units, min_size=d.algebra.dim, max_size=d.algebra.dim)))


@st.composite
def rescaled_kahler_data(draw):
    k = draw(st.one_of(st.sampled_from(sorted(KAHLER_INPUTS)).map(KAHLER_INPUTS.get),
                       coupled_metrics(), random_metrics()))
    n = k.algebra.dim
    return rescaled(k.cr, draw(st.lists(units, min_size=n, max_size=n)), k.metric)


@settings(max_examples=60, deadline=None)
@given(rescaled_cr_data())
def test_check_cr_matches_fraction_oracle_with_denominators(d):
    assert check_cr(d).to_dict() == check_cr_ambient(d).to_dict()
    assert_h_tables_match_definitions(d)


# units of 20 and more digits make the packed slots of check_cr wider than 64 bits
large_units = st.sampled_from([Fraction(10 ** 25, 7), Fraction(-7, 10 ** 25),
                               Fraction(3 ** 50, 2 ** 40), Fraction(-(10 ** 21) - 1, 3)]) | units


@settings(max_examples=40, deadline=None)
@given(dense_cr_data(), st.data())
def test_check_cr_matches_fraction_oracle_with_large_coefficients(d, data):
    n = d.algebra.dim
    d = rescaled(d, data.draw(st.lists(large_units, min_size=n, max_size=n)))
    assert check_cr(d).to_dict() == check_cr_ambient(d).to_dict()


def test_check_cr_with_large_coefficients_on_a_proper_H_fails_both_conditions(monkeypatch):
    # H = span(e1 + e5, e2, e3, e4) of sl2 + heisenberg with j rotating
    # (e1 + e5, e2) and (e3, e4) and zero on e5, e6: both conditions fail
    # there, and they still fail, with the oracle's witnesses, in a basis
    # whose units have up to 25 digits
    n, R = 6, [[int(a == b) for b in range(6)] for a in range(6)]
    R[4][0] = 1
    J0 = [[-1 if (a, b) in {(0, 1), (2, 3)} else int((a, b) in {(1, 0), (3, 2)})
           for b in range(n)] for a in range(n)]
    d = CRData(CR_ALGEBRAS["sl2+heisenberg"], Subspace.span(list(zip(*R))[:4], n),
               Matrix(R) * Matrix(J0) * _inverse(Matrix(R)))
    d = rescaled(d, [Fraction(10 ** 25, 7), Fraction(-7, 10 ** 25), Fraction(3 ** 50, 2 ** 40),
                     Fraction(1), Fraction(-(10 ** 21) - 1, 3), Fraction(-2)])
    widths = []
    monkeypatch.setattr(crkahler, "pack", lambda v, w: widths.append(w) or linalg.pack(v, w))
    rep = check_cr(d)
    assert min(widths) > 64 and d.H.dim < n
    assert [r.passed for r in rep.results] == [False, False]
    assert rep.to_dict() == check_cr_ambient(d).to_dict()


@settings(max_examples=60, deadline=None)
@given(rescaled_cr_data(), st.data())
def test_crdata_invariants_match_fraction_oracle_with_denominators(d, data):
    # one entry of j changed (or not): its image may leave H, or j^2 may stop
    # being -Id on H
    n = d.algebra.dim
    r, s = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    rows = [list(row) for row in rows_of(d.j)]
    rows[r][s] += data.draw(small)
    j = Matrix(rows)
    try:
        CRData(d.algebra, d.H, j)
    except ValueError as e:
        error = str(e)
    else:
        error = None
    assert error == crdata_error_ambient(d.H, j)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kahler_layer_matches_oracles_with_denominators(data):
    k = data.draw(rescaled_kahler_data())
    assert_kahler_layer_matches_oracles(
        k, perturbed_product(data, k) if data.draw(st.booleans()) else None)


# Every catalog and golden input, each once.
ORACLE_DOCS = {case.split("-")[1]: doc for case, (_, doc) in CASES.items()}

# The Kahler inputs on which U is nonzero, so that center_U has pairs to test.
CENTER_INPUTS = {name: k for name, k in KAHLER_INPUTS.items() if center_U(k)[0].dim}
CENTER_INPUTS["heisenberg+R2"] = heisenberg_r2_kahler()


def assert_center_U_matches_oracle(k):
    (U, rep), (want_U, want) = center_U(k), center_U_ambient(k)
    assert list(U.basis) == want_U
    assert rep.to_dict() == want.to_dict()


@pytest.mark.parametrize("name", sorted(set(KAHLER_INPUTS) | set(CENTER_INPUTS)))
def test_center_U_matches_fraction_oracle_on_catalog(name):
    assert_center_U_matches_oracle({**KAHLER_INPUTS, **CENTER_INPUTS}[name])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CENTER_INPUTS)), st.data())
def test_center_U_matches_fraction_oracle_in_rescaled_dense_bases(name, data):
    k = CENTER_INPUTS[name]
    n = k.algebra.dim
    k = rebased(k, unimodular(data.draw, n))
    k = rescaled(k.cr, data.draw(st.lists(units, min_size=n, max_size=n)), k.metric)
    assert center_U(k)[0].dim > 0
    assert_center_U_matches_oracle(k)


def tilted_h_ideal_doc(h2):
    """aff(R) + R, [e1, e2] = e2, with H = span{e1 + e3/2, e2 + h2 e3}, j h1 = h2,
    j h2 = -h1, j e3 = 0, and the central ideal span{e3}: the RREF basis of
    H has denominators, so the projected bracket carries the scale of H."""
    return {"algebra": {"dim": 3, "brackets": [{"x": 1, "y": 2, "result": ["0", "1", "0"]}]},
            "cr": {"H": [["1", "0", "1/2"], ["0", "1", h2]],
                   "j": [["0", "-1", "0"], ["1", "0", "0"], [h2, "-1/2", "0"]]},
            "ideal": [["0", "0", "1"]]}


IDEAL_DOCS = {name: doc for name, doc in ORACLE_DOCS.items() if "ideal" in doc}
IDEAL_DOCS.update(aff_r_tilted_h=tilted_h_ideal_doc("0"), aff_r_tilted_h2=tilted_h_ideal_doc("1/3"))


def assert_ideal_complement_matches_oracle(d, ideal):
    try:
        alg, jH, rep = ideal_complement_complex(d, ideal)
    except ValueError as e:
        got = str(e)
    else:
        got = (dense_tensor(alg), rows_of(jH), rep.to_dict())
    try:
        c, j_rows, want_rep = ideal_complement_complex_ambient(d, ideal)
    except ValueError as e:
        want = str(e)
    else:
        want = (c, j_rows, want_rep.to_dict())
    assert got == want


def rescaled_ideal(d, ideal, q):
    """d and the ideal in the basis q_i e_i, so that H, I, j and c carry
    denominators."""
    n = d.algebra.dim
    return rescaled(d, q), Subspace.span([[e / q[i] for i, e in enumerate(v)]
                                          for v in ideal.basis], n)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(IDEAL_DOCS)), st.data())
def test_ideal_complement_matches_fraction_oracle(name, data):
    # as given, or in the basis q_i e_i
    p = parse_document(IDEAL_DOCS[name])
    d, ideal, n = p.cr, p.ideal, p.algebra.dim
    if data.draw(st.booleans()):
        d, ideal = rescaled_ideal(d, ideal, data.draw(st.lists(units, min_size=n, max_size=n)))
    assert_ideal_complement_matches_oracle(d, ideal)


@pytest.mark.parametrize("name", ["aff_r_tilted_h", "aff_r_tilted_h2"])
def test_ideal_complement_keeps_the_scale_of_H(name):
    # [h1, h2] = [e1, e2] = e2, which is h2 plus a member of the ideal, so the
    # projected bracket is [h1, h2]' = h2, as given and in the basis q_i e_i
    p = parse_document(IDEAL_DOCS[name])
    alg, _, _ = ideal_complement_complex(p.cr, p.ideal)
    assert alg == from_brackets(2, {(0, 1): [0, 1]})
    assert_ideal_complement_matches_oracle(p.cr, p.ideal)
    assert_ideal_complement_matches_oracle(*rescaled_ideal(p.cr, p.ideal, [Fraction(-2, 3), Fraction(3), Fraction(1)]))


@pytest.mark.parametrize("name", sorted(ORACLE_DOCS))
def test_reports_match_fraction_oracle_layers(name, monkeypatch):
    # every layer that `run_checks` calls replaced by its definition-level oracle
    doc = ORACLE_DOCS[name]
    report = run_checks(parse_document(doc)).to_dict()
    for layer, oracle in [("check_cr", check_cr_ambient),
                          ("check_kahler", check_kahler_by_triples),
                          ("left_symmetric_product", left_symmetric_product_by_solves),
                          ("check_left_symmetric", check_left_symmetric_ambient),
                          ("omega_radical", omega_radical_ambient),
                          ("center_U", center_U_ambient),
                          ("semisimple_exactness", semisimple_exactness_full_system),
                          ("check_pseudo_poisson", check_pseudo_poisson_ambient),
                          ("check_j_invariance", check_j_invariance_ambient),
                          ("coboundary_pi", coboundary_pi_ambient),
                          ("ideal_complement_complex", ideal_complement_complex_ambient),
                          ("build_extension", lambda *args: build_extension_lifted(*args)[1])]:
        monkeypatch.setattr(checks, layer, oracle)
    assert run_checks(parse_document(doc)).to_dict() == report


def eliminations_of(M, calls):
    """How many of the recorded `_echelon` calls (rows, cols) eliminate M,
    alone or beside an identity block: their rows, cut to M's columns, are
    M's rows, in M's columns or twice as many."""
    return sum(len(rows) == M.rows and cols in (M.cols, 2 * M.cols)
               and [{k: x for k, x in r.items() if k < M.cols} for r in rows] == list(M.ints)
               for rows, cols in calls)


@pytest.mark.parametrize("name", sorted(ORACLE_DOCS))
def test_derived_matrices_are_built_once_per_document(name, monkeypatch):
    # parse plus run_checks: each Matrix builds its transpose at most once,
    # the nonsingularity of the Killing form is decided by at most one
    # elimination, and when a metric is given, the parse eliminates it
    # exactly once (its leading minors) and the Gram matrix of w|H is
    # eliminated exactly once
    transposes, calls = [], []
    transpose, echelon = Matrix.transpose, linalg._echelon

    def counted_transpose(m):
        transposes.append((m, transpose(m)))  # both kept, so no id is reused
        return transposes[-1][1]

    def counted_echelon(rows, cols):
        calls.append((list(rows), cols))
        return echelon(calls[-1][0], cols)

    monkeypatch.setattr(Matrix, "transpose", counted_transpose)
    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    p = parse_document(ORACLE_DOCS[name])
    parsed = len(calls)
    run_checks(p)
    built = {}
    for m, t in transposes:
        built.setdefault(id(m), set()).add(id(t))
    assert all(len(ts) == 1 for ts in built.values())
    if p.algebra._killing is not None:
        assert eliminations_of(p.algebra.killing_form(), calls) <= 1
    if p.kahler is not None:
        # the metric's own row objects: H = G may be given by equal unit rows
        metric = p.kahler.metric.ints
        assert sum(len(rows) == len(metric) and all(map(operator.is_, rows, metric))
                   for rows, _ in calls[:parsed]) == 1
        assert eliminations_of(p.kahler.gram, calls) == 1


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("family, eliminations", [
    # the metric's leading minors and [G | I]
    ("aff_power", 2), ("heisenberg", 2),
    # supplements, the leading minors and [G | I]; both solves of exactness
    # are monomial, and `solve` reads them off their rows
    ("so3_power", 3),
    # supplements
    ("so3_plus_abelian", 1)])
def test_only_rows_with_two_entries_are_eliminated(family, eliminations, k, monkeypatch):
    # on the unit bases of the bench families every other row reduction (the
    # spans of H and U, both eliminations of each kernel, the Killing rank)
    # is of monomial rows, which rref reads off their columns, and every
    # system solved is monomial
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda rows, cols: calls.append(cols)
                        or echelon(rows, cols))
    run_checks(parse_document(getattr(bench_families(), family)(k).document))
    assert len(calls) == eliminations


@pytest.mark.parametrize("workload, most", [("reject_dense", 1), ("kahler_solvable", 0)])
def test_h_basis_is_formatted_only_for_witnesses(workload, most, monkeypatch):
    # every basis vector of H is formatted at most once per document, and on
    # documents that pass (every kahler_solvable one) never
    formatted = []
    fmt = crkahler.fmt_vec
    monkeypatch.setattr(crkahler, "fmt_vec", lambda names, v, scale=1: formatted.append(v)
                        or fmt(names, v, scale))
    names = [name for name in DOCUMENTS if name.startswith(f"{workload}:")]
    assert names
    for name in names:
        p = parse_document(DOCUMENTS[name])
        formatted.clear()
        passed = run_checks(p).passed
        assert passed or most
        basis = p.cr.H.ints if p.cr is not None else []
        assert max((sum(v is h for v in formatted) for h in basis), default=0) <= most, name
        # nor is U's basis, or any other vector, formatted without a witness
        assert not passed or formatted == [], name


def test_no_fraction_is_built_from_parse_to_report(monkeypatch):
    # the seed-1 documents of the three benchmark workloads and the catalog
    # entries are read, checked and reported on integer rows alone.  The
    # texts are made before `Fraction` is patched: the benchmark's
    # generator builds Fractions
    texts = [dump_document(doc) for doc in DOCUMENTS.values()]
    built, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs: built.append(args)
                        or new(cls, *args, **kwargs))
    assert Fraction(1, 2) == Fraction(2, 4) and len(built) == 2  # the patch counts
    built.clear()
    for text in texts:
        rep = run_checks(parse_text(text))
        rep.to_dict(), rep.to_text()
    assert len(texts) == 29 and built == []
