from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlie import (
    CRData, KahlerCRData, LieAlgebra, build_extension, catalog, center_U,
    check_cr, check_kahler, check_left_symmetric, heisenberg3,
    ideal_complement_complex, left_symmetric_product, omega_radical,
    parse_document, run_checks, semisimple_exactness, sl2, so3,
)
from crlie import checks, crkahler
from crlie.crkahler import LeftSymmetricProduct, induced_bracket
from crlie.linalg import (
    Matrix, Subspace, basis_vector, is_zero, lincomb, vadd, vdot, vector,
)

from oracles import (
    check_cr_ambient, check_cr_over_fractions, check_kahler_by_triples,
    check_kahler_over_fractions, check_left_symmetric_ambient,
    check_left_symmetric_over_fractions, crdata_error_over_fractions,
    left_symmetric_product_by_solves, validate_structure_over_fractions,
)
from test_golden import AFF_AFF_R_DENSE, CASES


def entry_payloads(entry_id):
    return parse_document(catalog.get(entry_id).document)


@pytest.fixture
def so3_kahler():
    return entry_payloads("so3_cr").kahler


@pytest.fixture
def rn_kahler():
    return entry_payloads("rn_flat").kahler


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
    first = dict(res.witnesses[0])
    assert (first["x"], first["y"]) == ("e1", "e2")


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
        j = Matrix.from_columns([tuple(c) for c in cols])
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
    first = dict(res.witnesses[0])
    assert (first["x"], first["y"]) == ("e1", "e2")


def test_metric_must_be_positive_definite(so3_kahler):
    with pytest.raises(ValueError, match="positive definite"):
        KahlerCRData(so3_kahler.cr, Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))


# -- left-symmetric product --------------------------------------------------

def test_left_symmetric_product_so3_is_zero(so3_kahler):
    p = left_symmetric_product(so3_kahler)
    assert p.is_zero()
    assert check_left_symmetric(so3_kahler, p).passed


def test_left_symmetric_product_abelian_is_zero(rn_kahler):
    p = left_symmetric_product(rn_kahler)
    assert p.is_zero()
    assert check_left_symmetric(rn_kahler, p).passed


def test_left_symmetric_product_aff_aff_nonzero():
    k = entry_payloads("aff_aff").kahler
    p = left_symmetric_product(k)
    assert not p.is_zero()
    rep = check_left_symmetric(k, p)
    assert rep.passed
    # omega|H nondegenerate, so identity (1) forces [x,y]' = [x,y] exactly
    comm = induced_bracket(k, p)
    g = k.algebra
    for a in range(4):
        for b in range(4):
            assert comm[(a, b)] == g.bracket(basis_vector(4, a), basis_vector(4, b))


def test_omega_restricted_to_H_never_degenerate_for_valid_data():
    # x in H with <x, j(H)> = 0 forces x = 0 because j(H) = H and the metric
    # is positive definite; the nondegeneracy check can only fire on data
    # that bypassed construction
    for entry_id in ("rn_flat", "so3_cr", "sl2", "aff_aff"):
        k = entry_payloads(entry_id).kahler
        assert k.omega_gram.det() != 0


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
    k = KahlerCRData(CRData(g, H, j), Matrix.identity(3))
    U, rep = center_U(k)
    assert U.dim == 0
    assert rep.passed


# -- ideal-complement complex structures -------------------------------------

def test_ideal_complement_abelian(rn_kahler):
    ideal = Subspace.span([basis_vector(4, 2), basis_vector(4, 3)], 4)
    alg, jH, rep = ideal_complement_complex(rn_kahler.cr, ideal)
    assert alg == LieAlgebra.abelian(2)
    assert rep.passed


def test_ideal_complement_heisenberg_plus_r2():
    g = heisenberg3().direct_sum(LieAlgebra.abelian(2))
    H = Subspace.span([basis_vector(5, 3), basis_vector(5, 4)], 5)
    cols = [(0,) * 5] * 3 + [vector([0, 0, 0, 0, 1]), vector([0, 0, 0, -1, 0])]
    j = Matrix.from_columns([vector(c) for c in cols])
    ideal = Subspace.span([basis_vector(5, t) for t in range(3)], 5)
    alg, _, rep = ideal_complement_complex(CRData(g, H, j), ideal)
    assert alg == LieAlgebra.abelian(2)
    assert rep.passed


def test_ideal_complement_rejects_non_ideal(so3_kahler):
    with pytest.raises(ValueError, match="not an ideal"):
        ideal_complement_complex(so3_kahler.cr,
                                 Subspace.span([basis_vector(3, 2)], 3))


# -- extension construction --------------------------------------------------

def base_r2():
    return entry_payloads("heisenberg").kahler


def test_extension_with_zero_alpha_is_direct_sum():
    data, rep = build_extension(base_r2(), 1, {})
    assert rep.passed
    assert data.algebra == LieAlgebra.abelian(3)


def test_extension_heisenberg_type():
    data, rep = build_extension(base_r2(), 1, {(0, 1): [1]})
    assert rep.passed
    assert data.algebra == heisenberg3()
    assert check_kahler(data).passed
    assert check_cr(data.cr).passed


def test_extension_detects_non_j_invariant_alpha():
    k = entry_payloads("r4_ext_bad_alpha").kahler
    data, rep = build_extension(k, 1, {(0, 2): [1]})
    assert data is not None
    assert rep.result("extension.jacobi").passed
    assert rep.result("extension.cyclic").passed
    res = rep.result("extension.alpha_j_invariant")
    assert not res.passed
    assert dict(res.witnesses[0]) == {"x": "e1", "y": "e3"}


def test_extension_rejects_inconsistent_alpha():
    with pytest.raises(ValueError, match="antisymmetric"):
        build_extension(base_r2(), 1, {(0, 1): [1], (1, 0): [1]})


# -- semisimple exactness ----------------------------------------------------

def test_exactness_so3(so3_kahler):
    alpha, X, L, rep = semisimple_exactness(so3_kahler)
    assert rep.passed
    assert alpha == vector([0, 0, -1])          # alpha = -e3*
    assert X == vector([0, 0, "1/2"])           # X = e3 / 2
    assert L == Subspace.span([basis_vector(3, 2)], 3)


def test_exactness_scaled_metric_scales_alpha_but_not_L(so3_kahler):
    scaled = KahlerCRData(so3_kahler.cr, so3_kahler.metric.scale(2))
    alpha, X, L, rep = semisimple_exactness(scaled)
    assert rep.passed
    assert alpha == vector([0, 0, -2])
    assert X == vector([0, 0, 1])
    assert L == Subspace.span([basis_vector(3, 2)], 3)


def test_exactness_killing_dual_identity_on_all_pairs(so3_kahler):
    alpha, X, L, rep = semisimple_exactness(so3_kahler)
    g = so3_kahler.algebra
    K = g.killing_form()
    for a in range(3):
        for b in range(3):
            x, y = basis_vector(3, a), basis_vector(3, b)
            assert vdot(X, K.matvec(g.bracket(x, y))) == so3_kahler.omega(x, y)


def test_exactness_sl2():
    alpha, X, L, rep = semisimple_exactness(entry_payloads("sl2").kahler)
    assert rep.passed
    assert alpha == vector([0, 0, -1])
    assert X == vector([0, 0, "-1/8"])
    assert L == Subspace.span([basis_vector(3, 2)], 3)


def test_exactness_refuses_non_semisimple(rn_kahler):
    alpha, X, L, rep = semisimple_exactness(rn_kahler)
    assert alpha is None and X is None and L is None
    assert not rep.passed


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
    import random
    rng = random.Random(7)
    base = entry_payloads("rn_flat").kahler
    g = base.algebra
    for _ in range(25):
        m = _random_invertible(rng, 4)
        minv = _inverse(m)
        j2 = m * base.j * minv
        H2 = Subspace.span([m.matvec(h) for h in base.H.basis], 4)
        metric2 = minv.transpose() * minv
        k2 = KahlerCRData(CRData(g, H2, j2), metric2)
        assert check_kahler(k2).passed
        _, rep = omega_radical(k2)
        assert rep.passed


def _random_invertible(rng, n):
    while True:
        m = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(n)])
        if m.det() != 0:
            return m


def _inverse(m):
    from crlie.linalg import solve
    n = m.rows
    cols = [solve(m, basis_vector(n, i)) for i in range(n)]
    return Matrix.from_columns(cols)


# -- equivalence with the oracles --------------------------------------------

KAHLER_INPUTS = {entry_id: k for entry_id in catalog.ids()
                 if (k := entry_payloads(entry_id).kahler) is not None}
KAHLER_INPUTS["aff_aff_r_dense"] = parse_document(AFF_AFF_R_DENSE).kahler

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def assert_kahler_layer_matches_oracles(k, product=None):
    """check_cr, check_kahler, the product table and check_left_symmetric (on
    `product`, default the constructed one) agree with the oracles,
    witnesses in order."""
    assert check_cr(k.cr).to_dict() == check_cr_over_fractions(k.cr).to_dict()
    assert (check_kahler(k).to_dict() == check_kahler_by_triples(k).to_dict()
            == check_kahler_over_fractions(k).to_dict())
    constructed = left_symmetric_product(k)
    assert constructed.table == left_symmetric_product_by_solves(k).table
    product = product or constructed
    assert (check_left_symmetric(k, product).to_dict()
            == check_left_symmetric_ambient(k, product).to_dict()
            == check_left_symmetric_over_fractions(k, product).to_dict())


@pytest.mark.parametrize("name", sorted(KAHLER_INPUTS))
def test_kahler_layer_matches_oracles_on_catalog(name):
    assert_kahler_layer_matches_oracles(KAHLER_INPUTS[name])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_left_symmetric_checks_match_oracle_on_perturbed_products(data):
    # add q*h (h in H) to 1-3 entries, optionally to the transposed entry too;
    # a symmetric change keeps xy - yx, so identity1 and Jacobi still pass and
    # identity2 is reached
    k = KAHLER_INPUTS[data.draw(st.sampled_from(sorted(KAHLER_INPUTS)))]
    assert_kahler_layer_matches_oracles(k, perturbed_product(data, k))


def perturbed_product(data, k):
    """The product of k with q*h (h in H) added to 1-3 entries, optionally to
    the transposed entry too."""
    m, n = k.H.dim, k.algebra.dim
    table = dict(left_symmetric_product(k).table)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        a, b = data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)))
        h = lincomb(data.draw(st.lists(small, min_size=m, max_size=m)), k.H.basis, n)
        for key in ({(a, b), (b, a)} if data.draw(st.booleans()) else {(a, b)}):
            table[key] = vadd(table[key], h)
    return LeftSymmetricProduct(k.H.basis, table)


half = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2), max_denominator=4)


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
    return KahlerCRData(k.cr, A.transpose() * A + Matrix.identity(n))


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
    "so3+so3": so3().direct_sum(so3()),
    "aff_aff+R": entry_payloads("aff_aff").algebra.direct_sum(LieAlgebra.abelian(1)),
    "sl2+heisenberg": sl2().direct_sum(heisenberg3()),
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
    g = LieAlgebra([[p_inv.matvec(g.bracket(P.column(a), P.column(b))) for b in range(n)]
                    for a in range(n)])
    m = n if full else draw(st.sampled_from([d for d in (2, 4, 6) if d <= n]))
    R, S = unimodular(draw, n), unimodular(draw, m)
    J0 = Matrix([[(b == a + 1) - (a == b + 1) if a // 2 == b // 2 else 0 for b in range(m)]
                 for a in range(m)])
    j = S * J0 * _inverse(S)
    if m < n:
        j = Matrix.block_diag(j, Matrix.zeros(n - m, n - m))
    return CRData(g, Subspace.span([R.column(a) for a in range(m)], n),
                  R * j * _inverse(R))


@pytest.mark.parametrize("entry_id", [e for e in catalog.ids()
                                      if "cr" in catalog.get(e).document])
def test_check_cr_matches_ambient_oracle_on_catalog(entry_id):
    d = entry_payloads(entry_id).cr
    assert check_cr(d).to_dict() == check_cr_ambient(d).to_dict()


@settings(max_examples=60, deadline=None)
@given(dense_cr_data())
def test_check_cr_matches_ambient_oracle_in_dense_bases(d):
    assert check_cr(d).to_dict() == check_cr_ambient(d).to_dict()


def test_h_brackets_are_computed_once_per_crdata(monkeypatch):
    # every integer table of the CR and Kahler data is built once, however
    # many checks read it
    builds = []
    for cls, name in [(CRData, "basis_ints"), (CRData, "annihilator"), (CRData, "j_rows"),
                      (CRData, "brackets"), (CRData, "jH"), (KahlerCRData, "omega_rows"),
                      (KahlerCRData, "omega_images")]:
        build = getattr(cls, name).func
        prop = cached_property(lambda self, build=build, name=name:
                               builds.append(name) or build(self))
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    k = parse_document(AFF_AFF_R_DENSE).kahler
    table = k.algebra.table
    check_cr(k.cr)
    check_left_symmetric(k, left_symmetric_product(k))
    check_cr(k.cr)
    assert sorted(builds) == sorted(["basis_ints", "annihilator", "j_rows", "brackets",
                                     "jH", "omega_rows", "omega_images"])
    assert k.algebra.table is table


@settings(max_examples=20, deadline=None)
@given(dense_cr_data(full=True), st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_extension_by_a_coboundary_passes_jacobi_and_cyclic(d, theta):
    # alpha(x, y) = theta([x, y]) is a 2-cocycle, so Jacobi and the cyclic
    # condition hold, although single cyclic terms theta([[x, y], z]) do not vanish
    n = d.algebra.dim
    alpha = {(a, b): [vdot(vector(theta), d.algebra.c[a][b])]
             for a in range(n) for b in range(a + 1, n)}
    _, rep = build_extension(KahlerCRData(d, Matrix.identity(n)), 1, alpha)
    assert rep.result("extension.jacobi").passed
    assert rep.result("extension.cyclic").passed


# -- the integer kernel on tables with denominators ----------------------------

units = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(-5, 4),
                         Fraction(1)])


def rescaled(d, q, metric=None):
    """d (and the metric) in the basis q_i e_i: c'[a][b][t] = q_a q_b / q_t
    c[a][b][t], coordinates v'_i = v_i / q_i, j' = Q^-1 j Q and M' = Q M Q.
    c, the RREF rows of H, j and the metric then carry denominators."""
    g, n = d.algebra, d.algebra.dim
    c = [[tuple(q[a] * q[b] / q[t] * e for t, e in enumerate(g.c[a][b])) for b in range(n)]
         for a in range(n)]
    H = Subspace.span([tuple(e / q[i] for i, e in enumerate(h)) for h in d.H.basis], n)
    j = Matrix([[d.j[r, s] * q[s] / q[r] for s in range(n)] for r in range(n)])
    cr = CRData(LieAlgebra(c, names=g.names), H, j)
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
    assert check_cr(d).to_dict() == check_cr_over_fractions(d).to_dict()


@settings(max_examples=60, deadline=None)
@given(rescaled_cr_data(), st.data())
def test_crdata_invariants_match_fraction_oracle_with_denominators(d, data):
    # one entry of j changed (or not): its image may leave H, or j^2 may stop
    # being -Id on H
    n = d.algebra.dim
    r, s = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    rows = [list(row) for row in d.j.data]
    rows[r][s] += data.draw(small)
    j = Matrix(rows)
    try:
        CRData(d.algebra, d.H, j)
    except ValueError as e:
        error = str(e)
    else:
        error = None
    assert error == crdata_error_over_fractions(d.H, j)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kahler_layer_matches_oracles_with_denominators(data):
    k = data.draw(rescaled_kahler_data())
    assert_kahler_layer_matches_oracles(
        k, perturbed_product(data, k) if data.draw(st.booleans()) else None)


# Every catalog and golden input, each once.
ORACLE_DOCS = {case.split("-")[1]: doc for case, (_, doc) in CASES.items()}


@pytest.mark.parametrize("name", sorted(ORACLE_DOCS))
def test_reports_match_fraction_oracle_layers(name, monkeypatch):
    doc = ORACLE_DOCS[name]
    report = run_checks(parse_document(doc)).to_dict()
    for layer, oracle in [("check_cr", check_cr_over_fractions),
                          ("check_kahler", check_kahler_over_fractions),
                          ("left_symmetric_product", left_symmetric_product_by_solves),
                          ("check_left_symmetric", check_left_symmetric_over_fractions)]:
        monkeypatch.setattr(checks, layer, oracle)
    # the ideal and extension tables, and closedness of the extension
    monkeypatch.setattr(crkahler, "validate_structure", validate_structure_over_fractions)
    monkeypatch.setattr(crkahler, "check_kahler", check_kahler_over_fractions)
    assert run_checks(parse_document(doc)).to_dict() == report
