"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE <n> (<label>): pass|fail`` line; every comparison is exact.
"""

import contextlib
import json
import random
from fractions import Fraction

from crlie import (
    Bivector, CRData, KahlerCRData, LieAlgebra, PseudoPoissonData, StructureError, catalog,
    check_cr, check_j_invariance, check_kahler, check_left_symmetric, check_pseudo_poisson,
    left_symmetric_product,
    coboundary_pi, dump_document, omega_radical, parse_document,
    run_checks, schouten, semisimple_exactness, so3,
)
from crlie.cli import main as cli_main
from crlie.linalg import Matrix, Subspace, solve

from oracles import (
    all_sign_bivectors, alternating, basis_vector, block_diag, coefficients, dense_tensor,
    det_over_fractions, direct_sum, from_columns, from_pair, identity, int_table, matvec, omega,
    rows_of, schouten_decomposable, vdot, vector,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): fail")
        raise
    print(f"ACCEPTANCE {number} ({label}): pass")


def entry_payloads(entry_id):
    return parse_document(catalog.get(entry_id).document)


def valid_kahler_entries():
    out = []
    for entry_id in catalog.ids():
        entry = catalog.get(entry_id)
        kahler_ids = ("kahler.omega_antisymmetric", "kahler.omega_closed",
                      "kahler.omega_h_nondegenerate")
        if all(entry.expected.get(cid) == "pass" for cid in kahler_ids):
            p = entry_payloads(entry_id)
            if p.kahler is not None:
                out.append((entry_id, p))
    return out


def test_criterion_1_catalog_fidelity():
    with criterion(1, "catalog fidelity"):
        for entry_id in ("so3_cr", "rn_flat"):
            p = entry_payloads(entry_id)
            assert check_cr(p.cr).passed
            # check_kahler verifies the cyclic closedness identity on every
            # basis triple of the ambient algebra
            assert check_kahler(p.kahler).passed


def test_criterion_2_left_symmetric_identities():
    with criterion(2, "left-symmetric identities"):
        entries = valid_kahler_entries()
        assert entries
        for entry_id, p in entries:
            rep = check_left_symmetric(p.kahler, left_symmetric_product(p.kahler))
            passed = {r.check_id: r.passed for r in rep.results}
            assert passed["leftsym.identity1"]
            if "leftsym.identity2" in passed:
                assert passed["leftsym.jacobi_induced"]
                assert passed["leftsym.identity2"]


def _random_invertible(rng, n):
    while True:
        m = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(n)])
        if det_over_fractions(rows_of(m)) != 0:
            return m


def _inverse(m):
    n = m.rows
    return from_columns([from_pair(solve(m, (1, {i: 1})), n) for i in range(n)])


def test_criterion_3_radical_structure():
    with criterion(3, "omega-radical structure"):
        for entry_id, p in valid_kahler_entries():
            _, rep = omega_radical(p.kahler)
            assert rep.passed
        base = entry_payloads("rn_flat").kahler
        rng = random.Random(2024)
        for _ in range(100):
            m = _random_invertible(rng, 4)
            minv = _inverse(m)
            k2 = KahlerCRData(
                CRData(base.algebra,
                       Subspace.span([matvec(m, h) for h in base.H.basis], 4),
                       m * base.j * minv),
                minv.transpose() * minv)
            assert check_kahler(k2).passed
            _, rep = omega_radical(k2)
            assert rep.passed


def test_criterion_4_semisimple_duality_on_so3():
    with criterion(4, "semisimple duality on so(3)"):
        k = entry_payloads("so3_cr").kahler
        g = k.algebra
        alpha, X, L, rep = semisimple_exactness(k)
        alpha, X = from_pair(alpha, 3), from_pair(X, 3)
        assert rep.passed
        assert g.killing_form() == identity(3, -2)
        assert alpha == vector([0, 0, -1])           # alpha = -e3*
        assert X == vector(["0", "0", "1/2"])        # X = e3 / 2
        assert L.dim == 1 == g.dim - k.H.dim
        K = g.killing_form()
        for a in range(3):
            for b in range(3):
                x, y = basis_vector(3, a), basis_vector(3, b)
                assert vdot(matvec(K, X), g.bracket(x, y)) == omega(k, x, y)


def _catalog_algebras_dim_le_4():
    seen = []
    for entry_id in catalog.ids():
        g = entry_payloads(entry_id).algebra
        if g.dim <= 4 and g not in seen:
            seen.append(g)
    return seen


def test_criterion_5_schouten_oracle_equivalence():
    with criterion(5, "schouten oracle equivalence"):
        algebras = _catalog_algebras_dim_le_4()
        assert algebras
        for g in algebras:
            for p in all_sign_bivectors(g.dim):
                assert schouten(g, p, p) == schouten_decomposable(g, p, p)


def test_criterion_6_poisson_fixtures():
    with criterion(6, "poisson fixtures"):
        # so(3): Lambda = e1^e2, U = span{e3} satisfies the membership check
        from crlie import PseudoPoissonData
        g = so3()
        d = PseudoPoissonData(
            g, Subspace.span([basis_vector(3, 0), basis_vector(3, 1)], 3),
            Subspace.span([basis_vector(3, 2)], 3),
            Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
            alternating(Bivector, 3, {(0, 1): 1}))
        assert check_pseudo_poisson(d).passed
        assert check_j_invariance(d).passed

        # sl(2): r = e^f has ad-invariant [r,r]; passes for every U
        sl2g = entry_payloads("sl2").algebra
        r = alternating(Bivector, 3, {(0, 1): 1})
        for u in (Subspace.from_ints(3, []),
                  Subspace.span([basis_vector(3, 0)], 3),
                  Subspace.span([basis_vector(3, 1)], 3),
                  Subspace.span([basis_vector(3, 2)], 3),
                  Subspace.from_ints(3, [{0: 1}, {1: 1}, {2: 1}])):
            assert coboundary_pi(sl2g, r, u).passed


def product_data(d1, d2) -> PseudoPoissonData:
    """The block product of two pseudo-Poisson structures: G1 + G2 with
    H = H1 + H2, U = U1 + U2, j = j1 + j2 and Lambda = Lambda1 + Lambda2."""
    n1, n2 = d1.algebra.dim, d2.algebra.dim
    zero1, zero2 = (0,) * n1, (0,) * n2

    def block(s1, s2):
        return Subspace.span([h + zero2 for h in s1.basis] + [zero1 + h for h in s2.basis],
                             n1 + n2)

    lam = {**coefficients(d1.Lambda),
           **{(a + n1, b + n1): x for (a, b), x in coefficients(d2.Lambda).items()}}
    return PseudoPoissonData(direct_sum(d1.algebra, d2.algebra), block(d1.H, d2.H),
                             block(d1.U, d2.U), block_diag(d1.j, d2.j),
                             alternating(Bivector, n1 + n2, lam))


def test_criterion_7_product_theorem():
    with criterion(7, "product theorem"):
        passing = []
        for entry_id in catalog.ids():
            entry = catalog.get(entry_id)
            if any(cid.startswith("poisson.") and verdict == "fail"
                   for cid, verdict in entry.expected.items()):
                continue
            p = entry_payloads(entry_id)
            if p.poisson is not None and check_pseudo_poisson(p.poisson).passed:
                passing.append(p.poisson)
        assert len(passing) >= 2
        for d1 in passing:
            for d2 in passing:
                prod = product_data(d1, d2)
                assert check_pseudo_poisson(prod).passed
                assert check_j_invariance(prod).passed
                t = schouten(prod.algebra, prod.Lambda, prod.Lambda)
                n1 = d1.algebra.dim
                for key in t.ints:
                    assert max(key) < n1 or min(key) >= n1


FROZEN_FAILURES = {
    "so3_bad_metric": {
        "kahler.omega_antisymmetric": {"x": "e1", "y": "e2"}},
    "affxaff_bad_j": {
        "cr.condition3": {"offending": "-e2 + e4", "x": "e1", "y": "e2"}},
    "so3_r_mixed": {
        "poisson.schouten_membership": {"residual": "2*e1^e2^e3 - 2*e1^e3^e4"},
        "poisson.j_invariance": {"image": "e1^e2 - e2^e3"},
        "poisson.coboundary_invariance": {"generator": "e1",
                                          "residual": "2*e1^e2^e4"}},
    "r4_ext_bad_alpha": {
        "extension.alpha_j_invariant": {"x": "e1", "y": "e3"}},
}


def test_criterion_8_negative_fixture_discipline():
    with criterion(8, "negative fixtures"):
        for entry_id, expected_fails in FROZEN_FAILURES.items():
            rep = run_checks(entry_payloads(entry_id))
            failed = {r.check_id: r for r in rep.results if not r.passed}
            assert set(failed) == set(expected_fails)
            for cid, witness in expected_fails.items():
                assert failed[cid].witnesses[0] == witness
        base = so3()
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    c = [[list(v) for v in row] for row in dense_tensor(base)]
                    c[i][j][k] += 1
                    try:
                        LieAlgebra(int_table(c))
                    except StructureError:
                        continue
                    raise AssertionError(f"mutation ({i},{j},{k}) accepted")


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "cli contract"):
        # round-trip dump -> check exits 0 for every all-pass entry, 1 for
        # the stored failing fixtures
        for entry_id in catalog.ids():
            entry = catalog.get(entry_id)
            path = tmp_path / f"{entry_id}.json"
            path.write_text(dump_document(entry.document))
            expected = 0 if all(v == "pass" for v in entry.expected.values()) else 1
            assert cli_main(["check", str(path)]) == expected
            capsys.readouterr()
        # malformed inputs exit 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["check", str(bad)]) == 2
        assert cli_main(["check", str(tmp_path / "absent.json")]) == 2
        assert cli_main(["catalog", "dump", "no_such_entry"]) == 2
        capsys.readouterr()
        # structured reports are byte-identical across runs
        path = tmp_path / "so3_cr.json"
        assert cli_main(["check", str(path), "--format", "structured"]) == 0
        first = capsys.readouterr().out
        json.loads(first)
        assert cli_main(["check", str(path), "--format", "structured"]) == 0
        assert capsys.readouterr().out == first
