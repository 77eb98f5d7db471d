import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlie import (
    Bivector, PseudoPoissonData, catalog, check_j_invariance, check_pseudo_poisson,
    coboundary_pi, parse_document, run_checks, schouten, sl2, so3,
)
from crlie import multivector, poisson
from crlie.linalg import Matrix, Subspace

from oracles import (
    ad_rows, alternating, apply_exterior_power, basis_of, basis_vector, check_j_invariance_ambient,
    check_pseudo_poisson_ambient, coboundary_pi_ambient, coefficients, combine, dense_tensor,
    direct_sum, from_brackets, lincomb, matvec, schouten_decomposable, vadd, wedge_coeffs, zeros,
)
from strategies import fractions
from test_crkahler import dense_cr_data, rescaled, units
from test_inputdoc_cli import bench_families


def so3_poisson():
    g = so3()
    H = Subspace.span([basis_vector(3, 0), basis_vector(3, 1)], 3)
    U = Subspace.span([basis_vector(3, 2)], 3)
    j = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    return PseudoPoissonData(g, H, U, j, alternating(Bivector, 3, {(0, 1): 1}))


def coboundary_data(g, r, U):
    """The bundle that `coboundary_pi` reads for r and U alone: H the
    coordinate complement of U's pivots, j = 0 and Lambda = 0."""
    n = g.dim
    H = Subspace.from_ints(n, [{c: 1} for c in range(n) if c not in U.pivots])
    return PseudoPoissonData(g, H, U, zeros(n, n), alternating(Bivector, n), r)


# -- pseudo-Poisson membership -----------------------------------------------

def test_so3_membership_passes():
    assert check_pseudo_poisson(so3_poisson()).passed


def test_so3_membership_fails_with_zero_U():
    g = so3()
    j = Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])  # any supplement works;
    # PseudoPoissonData only constrains H + U = G
    d = PseudoPoissonData(g, Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}]),
                          Subspace.from_ints(3, []), zeros(3, 3),
                          alternating(Bivector, 3, {(0, 1): 1}))
    rep = check_pseudo_poisson(d)
    res = rep.result("poisson.schouten_membership")
    assert not res.passed
    assert "2*e1^e2^e3" in res.witnesses[0]["residual"]


def test_abelian_membership_trivially_true():
    g = from_brackets(4, {})
    d = PseudoPoissonData(g, Subspace.from_ints(4, [{0: 1}, {1: 1}, {2: 1}, {3: 1}]),
                          Subspace.from_ints(4, []), zeros(4, 4),
                          alternating(Bivector, 4, {(0, 1): 1, (2, 3): 1}))
    assert check_pseudo_poisson(d).passed


def test_supplementarity_enforced():
    g = so3()
    with pytest.raises(ValueError, match="supplementary"):
        PseudoPoissonData(g, Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}]),
                          Subspace.span([basis_vector(3, 2)], 3),
                          zeros(3, 3), alternating(Bivector, 3))


# -- j-invariance ------------------------------------------------------------

def test_j_invariance_so3():
    assert check_j_invariance(so3_poisson()).passed


def test_j_invariance_fails_for_e1_wedge_e3():
    g = so3()
    d = PseudoPoissonData(g, Subspace.span([basis_vector(3, 0), basis_vector(3, 1)], 3),
                          Subspace.span([basis_vector(3, 2)], 3),
                          Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
                          alternating(Bivector, 3, {(0, 2): 1}))
    # (Lambda^2 j)(e1^e3) = e2^0 = 0
    assert not check_j_invariance(d).passed


def test_j_invariance_zero_bivector():
    g = so3()
    d = PseudoPoissonData(g, Subspace.span([basis_vector(3, 0), basis_vector(3, 1)], 3),
                          Subspace.span([basis_vector(3, 2)], 3),
                          Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
                          alternating(Bivector, 3))
    assert check_j_invariance(d).passed


# -- coboundary tensors ------------------------------------------------------

def test_sl2_r_matrix_invariant_for_every_U():
    g = sl2()
    r = alternating(Bivector, 3, {(0, 1): 1})
    for u in (Subspace.from_ints(3, []), Subspace.span([basis_vector(3, 2)], 3),
              Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}])):
        assert coboundary_pi(coboundary_data(g, r, u)).passed


def test_abelian_coboundary_trivially_passes():
    g = from_brackets(3, {})
    r = alternating(Bivector, 3, {(0, 1): 2, (1, 2): -1})
    rep = coboundary_pi(coboundary_data(g, r, Subspace.from_ints(3, [])))
    assert rep.passed


def test_so3_volume_is_ad_invariant():
    # the candidate negative fixture from pure so(3) actually passes:
    # e1^e2^e3 is invariant under every derivation action
    g = so3()
    rep = coboundary_pi(coboundary_data(g, alternating(Bivector, 3, {(0, 1): 1}),
                                        Subspace.from_ints(3, [])))
    assert rep.passed


def test_mixed_factor_fixture_fails_found_by_search():
    """The genuinely failing fixture lives on so(3) + R and was discovered
    by searching sign patterns of block-mixing r; frozen here with its
    witness generator."""
    g = direct_sum(so3(), from_brackets(1, {}))
    r = alternating(Bivector, 4, {(0, 1): 1, (0, 3): 1})
    rep = coboundary_pi(coboundary_data(g, r, Subspace.from_ints(4, [])))
    res = rep.result("poisson.coboundary_invariance")
    assert not res.passed
    assert res.witnesses[0]["generator"] == "e1"

    # independent confirmation via the decomposable oracle: the derivation
    # image of [r,r] under ad e1 is 2 e1^e2^e4 != 0
    from crlie.multivector import Trivector
    rr = schouten_decomposable(g, r, r)
    assert rr == alternating(Trivector, 4, {(0, 1, 2): 2, (0, 2, 3): -2})
    image = apply_exterior_power(ad_rows(dense_tensor(g), basis_vector(4, 0)), rr, leibniz=True)
    assert image == alternating(Trivector, 4, {(0, 1, 3): 2})


def test_search_confirms_no_pure_so3_failure():
    # every sign-pattern bivector over so(3) passes for U = {0}: [r,r] is
    # always a multiple of the invariant volume trivector
    from oracles import all_sign_bivectors
    g = so3()
    for r in all_sign_bivectors(3):
        assert coboundary_pi(coboundary_data(g, r, Subspace.from_ints(3, []))).passed


# the bundle that coboundary_pi reads refuses an r or a U of another dimension,
# so coboundary_pi is never reached

@pytest.mark.parametrize("dim", [2, 4])
def test_coboundary_pi_refuses_bivectors_of_another_dimension(dim):
    with pytest.raises(ValueError, match="bivector dimension mismatch"):
        coboundary_pi(coboundary_data(so3(), alternating(Bivector, dim, {(0, 1): 1}),
                                      Subspace.from_ints(3, [])))


def test_coboundary_pi_refuses_a_complement_of_another_dimension():
    with pytest.raises(ValueError, match="subspace ambient dimension mismatch"):
        coboundary_pi(coboundary_data(so3(), alternating(Bivector, 3, {(0, 1): 1}),
                                      Subspace.from_ints(4, [{3: 1}])))


def test_coboundary_pi_refuses_a_bundle_without_r():
    # so3_x_r2 has a poisson block without r, so it has no [r, r] to test
    d = parse_document(catalog.get("so3_x_r2").document).poisson
    assert d.r is None
    with pytest.raises(ValueError, match=r"no r, so \[r, r\] is undefined"):
        coboundary_pi(d)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("r, squares", [(None, 1), ([{"i": 1, "j": 3, "coeff": "2"}], 2)],
                         ids=["r=Lambda", "r!=Lambda"])
def test_one_schouten_square_per_bivector_of_a_document(k, r, squares, monkeypatch):
    # so(3)^k gives r = Lambda: the membership and coboundary checks share
    # [Lambda, Lambda]; another r has a square of its own.  Both checks read
    # one quotient map G -> G/U, counted wherever it could be built
    doc = bench_families().so3_power(k).document
    if r is not None:
        doc = {**doc, "poisson": {**doc["poisson"], "r": r}}
    calls, maps = [], []
    monkeypatch.setattr(multivector, "schouten_ints",
                        lambda *args, f=multivector.schouten_ints: calls.append(1) or f(*args))
    build = multivector.quotient_columns
    for module in (multivector, poisson):
        monkeypatch.setattr(module, "quotient_columns", lambda u: maps.append(1) or build(u))
    rep = run_checks(parse_document(doc))
    assert "poisson.coboundary_invariance" in {c.check_id for c in rep.results}
    assert (len(calls), len(maps)) == (squares, 1)


def test_block_bivector_schouten_has_no_cross_terms():
    rng = random.Random(3)
    g1, g2 = so3(), sl2()
    g = direct_sum(g1, g2)
    for _ in range(10):
        b1 = alternating(Bivector, 3, {k: rng.randint(-2, 2) for k in combinations(range(3), 2)})
        b2 = alternating(Bivector, 3, {k: rng.randint(-2, 2) for k in combinations(range(3), 2)})
        coeffs = coefficients(b1)
        coeffs.update({(a + 3, b + 3): v for (a, b), v in coefficients(b2).items()})
        block = alternating(Bivector, 6, coeffs)
        t = schouten(g, block, block)
        for key in t.ints:
            assert max(key) < 3 or min(key) >= 3


# -- the integer path against the Fraction oracles ----------------------------

rationals = fractions(-2, 2, max_denominator=3)


def bivectors(n):
    keys = list(combinations(range(n), 2))
    return st.lists(rationals, min_size=len(keys), max_size=len(keys)).map(
        lambda cs: alternating(Bivector, n, dict(zip(keys, cs))))


@st.composite
def dense_poisson_data(draw):
    """CR data in a dense basis, rescaled so that c, H and j carry
    denominators, with U the coordinate complement of H: U = {0} when H = G,
    else coordinate or tilted by a random map into H.  Lambda is random or
    x^y + jx^jy for x, y in H, which j fixes; r is random or Lambda."""
    kind = draw(st.sampled_from(["zero", "coordinate", "tilted"]))
    d = draw(dense_cr_data(full=kind == "zero"))
    n = d.algebra.dim
    d = rescaled(d, draw(st.lists(units, min_size=n, max_size=n)))
    m = d.H.dim

    def in_H():
        return lincomb(draw(st.lists(rationals, min_size=m, max_size=m)), basis_of(d.H), n)

    U = Subspace.span([basis_vector(n, c) for c in range(n) if c not in d.H.pivots], n)
    if kind == "tilted":
        U = Subspace.span([vadd(u, in_H()) for u in basis_of(U)], n)
    if draw(st.booleans()):
        x, y = in_H(), in_H()
        lam = alternating(Bivector, n, combine((1, wedge_coeffs(x, y)),
                                  (1, wedge_coeffs(matvec(d.j, x), matvec(d.j, y)))))
    else:
        lam = draw(bivectors(n))
    r = lam if draw(st.booleans()) else draw(bivectors(n))
    return PseudoPoissonData(d.algebra, d.H, U, d.j, lam, r)


@settings(max_examples=40, deadline=None)
@given(dense_poisson_data())
def test_poisson_layers_match_fraction_oracles_in_dense_bases(d):
    assert check_pseudo_poisson(d).to_dict() == check_pseudo_poisson_ambient(d).to_dict()
    assert check_j_invariance(d).to_dict() == check_j_invariance_ambient(d).to_dict()
    assert (coboundary_pi(d).to_dict()
            == coboundary_pi_ambient(d.algebra, d.r, d.U).to_dict())
