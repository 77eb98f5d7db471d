"""Built-in validated example structures.

Each entry stores its input document (round-trippable through the parser)
and the expected verdict of every check the driver emits for it.  The
negative fixtures were found by searching small sign/coefficient variants
and frozen together with their witnesses; the catalog self-test replays
every entry against its expectations.
"""

from __future__ import annotations

I2 = [["1", "0"], ["0", "1"]]
I3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
I4 = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
      ["0", "0", "1", "0"], ["0", "0", "0", "1"]]

# rotation on (e1, e2): j e1 = e2, j e2 = -e1
ROT2 = [["0", "-1"], ["1", "0"]]
# two rotation blocks on (e1, e2) and (e3, e4)
ROT22 = [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
         ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]

SO3_BRACKETS = [
    {"x": 1, "y": 2, "result": ["0", "0", "1"]},
    {"x": 1, "y": 3, "result": ["0", "-1", "0"]},
    {"x": 2, "y": 3, "result": ["1", "0", "0"]},
]

SL2_BRACKETS = [
    {"x": 1, "y": 2, "result": ["0", "0", "1"]},    # [e,f] = h
    {"x": 1, "y": 3, "result": ["-2", "0", "0"]},   # [e,h] = -2e
    {"x": 2, "y": 3, "result": ["0", "2", "0"]},    # [f,h] = 2f
]

AFF_AFF_BRACKETS = [
    {"x": 1, "y": 2, "result": ["0", "1", "0", "0"]},
    {"x": 3, "y": 4, "result": ["0", "0", "0", "1"]},
]


class CatalogEntry:
    def __init__(self, id: str, description: str, document: dict, expected: dict):
        self.id, self.description, self.document = id, description, document
        self.expected = expected  # check_id -> "pass" | "fail"


def _all_pass(*check_ids):
    return {cid: "pass" for cid in check_ids}

CR_KAHLER_IDS = ("cr.condition2", "cr.condition3",
                 "kahler.omega_antisymmetric", "kahler.omega_closed",
                 "kahler.omega_h_nondegenerate",
                 "leftsym.identity1", "leftsym.jacobi_induced", "leftsym.identity2",
                 "radical.subalgebra", "radical.orthogonal_h",
                 "center_u.commutative", "center_u.stabilizes_h")
EXACTNESS_IDS = ("exactness.alpha_exact", "exactness.killing_dual",
                 "exactness.radical_match")
EXTENSION_IDS = ("extension.jacobi", "extension.alpha_j_invariant",
                 "extension.cyclic", "extension.omega_closed")


def _entries() -> list[CatalogEntry]:
    entries = []

    entries.append(CatalogEntry(
        "rn_flat",
        "commutative R^4 with the flat metric; H = span{e1,e2} with the "
        "standard rotation j",
        {
            "algebra": {"dim": 4, "names": ["e1", "e2", "e3", "e4"], "brackets": []},
            "cr": {"H": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                   "j": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                         ["0", "0", "0", "0"], ["0", "0", "0", "0"]]},
            "metric": I4,
        },
        _all_pass(*CR_KAHLER_IDS)))

    entries.append(CatalogEntry(
        "so3_cr",
        "so(3) with H = span{e1,e2}, j e1 = e2, j e2 = -e1, flat metric; "
        "the semisimple codimension-1 structure",
        {
            "algebra": {"dim": 3, "names": ["e1", "e2", "e3"],
                        "brackets": SO3_BRACKETS},
            "cr": {"H": [["1", "0", "0"], ["0", "1", "0"]],
                   "j": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]},
            "metric": I3,
        },
        _all_pass(*CR_KAHLER_IDS, *EXACTNESS_IDS)))

    entries.append(CatalogEntry(
        "sl2",
        "sl(2) in the (e,f,h) basis with H = span{e,f}; also carries the "
        "r = e^f pseudo-Poisson fixture with U = span{h}",
        {
            "algebra": {"dim": 3, "names": ["e", "f", "h"],
                        "brackets": SL2_BRACKETS},
            "cr": {"H": [["1", "0", "0"], ["0", "1", "0"]],
                   "j": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]},
            "metric": I3,
            "poisson": {"U": [["0", "0", "1"]],
                        "lambda": [{"i": 1, "j": 2, "coeff": "1"}],
                        "r": [{"i": 1, "j": 2, "coeff": "1"}]},
        },
        _all_pass(*CR_KAHLER_IDS, *EXACTNESS_IDS,
                  "poisson.schouten_membership", "poisson.j_invariance",
                  "poisson.coboundary_invariance")))

    entries.append(CatalogEntry(
        "heisenberg",
        "R^2 abelian Kahler base extended by a one-dimensional V with "
        "alpha(e1,e2) = v1: the Heisenberg-type central extension",
        {
            "algebra": {"dim": 2, "names": ["e1", "e2"], "brackets": []},
            "cr": {"H": I2, "j": ROT2},
            "metric": I2,
            "extension": {"V_dim": 1,
                          "alpha": [{"x": 1, "y": 2, "result": ["1"]}]},
        },
        _all_pass(*CR_KAHLER_IDS, *EXTENSION_IDS)))

    entries.append(CatalogEntry(
        "aff_aff",
        "aff(R) x aff(R), the 4-dimensional solvable Kahler algebra with "
        "H the whole algebra and a nonzero left-symmetric product",
        {
            "algebra": {"dim": 4, "names": ["e1", "e2", "e3", "e4"],
                        "brackets": AFF_AFF_BRACKETS},
            "cr": {"H": I4, "j": ROT22},
            "metric": I4,
        },
        _all_pass(*CR_KAHLER_IDS)))

    entries.append(CatalogEntry(
        "so3_x_r2",
        "product fixture: so(3) pseudo-Poisson structure times the abelian "
        "R^2 one (H = span{e1,e2,e4,e5}, U = span{e3})",
        {
            "algebra": {"dim": 5, "names": ["e1", "e2", "e3", "e4", "e5"],
                        "brackets": [
                            {"x": 1, "y": 2, "result": ["0", "0", "1", "0", "0"]},
                            {"x": 1, "y": 3, "result": ["0", "-1", "0", "0", "0"]},
                            {"x": 2, "y": 3, "result": ["1", "0", "0", "0", "0"]}]},
            "cr": {"H": [["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                         ["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "1"]],
                   "j": [["0", "-1", "0", "0", "0"], ["1", "0", "0", "0", "0"],
                         ["0", "0", "0", "0", "0"], ["0", "0", "0", "0", "-1"],
                         ["0", "0", "0", "1", "0"]]},
            "poisson": {"U": [["0", "0", "1", "0", "0"]],
                        "lambda": [{"i": 1, "j": 2, "coeff": "1"},
                                   {"i": 4, "j": 5, "coeff": "1"}]},
        },
        _all_pass("cr.condition2", "cr.condition3",
                  "poisson.schouten_membership", "poisson.j_invariance")))

    # -- negative fixtures (frozen with their witnesses) --------------------

    entries.append(CatalogEntry(
        "so3_bad_metric",
        "so(3) CR data with metric diag(1,2,1): omega is no longer "
        "antisymmetric (witness pair (e1,e2))",
        {
            "algebra": {"dim": 3, "names": ["e1", "e2", "e3"],
                        "brackets": SO3_BRACKETS},
            "cr": {"H": [["1", "0", "0"], ["0", "1", "0"]],
                   "j": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]},
            "metric": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]],
        },
        {"cr.condition2": "pass", "cr.condition3": "pass",
         "kahler.omega_antisymmetric": "fail",
         "kahler.omega_closed": "pass",
         "kahler.omega_h_nondegenerate": "pass"}))

    entries.append(CatalogEntry(
        "affxaff_bad_j",
        "aff(R) x aff(R) with the cross-block j (e1 -> e3, e2 -> e4): "
        "integrability condition 3 fails (witness pair (e1,e2)); any "
        "complex structure on a 2-dimensional H passes both conditions "
        "automatically, so a failing fixture needs dim H >= 4",
        {
            "algebra": {"dim": 4, "names": ["e1", "e2", "e3", "e4"],
                        "brackets": AFF_AFF_BRACKETS},
            "cr": {"H": I4,
                   "j": [["0", "0", "-1", "0"], ["0", "0", "0", "-1"],
                         ["1", "0", "0", "0"], ["0", "1", "0", "0"]]},
        },
        {"cr.condition2": "pass", "cr.condition3": "fail"}))

    entries.append(CatalogEntry(
        "so3_r_mixed",
        "so(3) + R with r = e1^e2 + e1^e4 mixing the factors and U = {0}: "
        "[r,r] is not annihilated by every derivation action (fails on "
        "generator e1)",
        {
            "algebra": {"dim": 4, "names": ["e1", "e2", "e3", "e4"],
                        "brackets": [
                            {"x": 1, "y": 2, "result": ["0", "0", "1", "0"]},
                            {"x": 1, "y": 3, "result": ["0", "-1", "0", "0"]},
                            {"x": 2, "y": 3, "result": ["1", "0", "0", "0"]}]},
            "cr": {"H": I4, "j": ROT22},
            "poisson": {"U": [],
                        "lambda": [{"i": 1, "j": 2, "coeff": "1"},
                                   {"i": 1, "j": 4, "coeff": "1"}],
                        "r": [{"i": 1, "j": 2, "coeff": "1"},
                              {"i": 1, "j": 4, "coeff": "1"}]},
        },
        {"cr.condition2": "pass", "cr.condition3": "pass",
         "poisson.schouten_membership": "fail",
         "poisson.j_invariance": "fail",
         "poisson.coboundary_invariance": "fail"}))

    entries.append(CatalogEntry(
        "r4_ext_bad_alpha",
        "R^4 abelian Kahler base with alpha(e1,e3) = v1, which is not "
        "j-invariant (witness pair (e1,e3)); every other extension check "
        "passes",
        {
            "algebra": {"dim": 4, "names": ["e1", "e2", "e3", "e4"],
                        "brackets": []},
            "cr": {"H": I4, "j": ROT22},
            "metric": I4,
            "extension": {"V_dim": 1,
                          "alpha": [{"x": 1, "y": 3, "result": ["1"]}]},
        },
        dict(_all_pass(*CR_KAHLER_IDS, *EXTENSION_IDS),
             **{"extension.alpha_j_invariant": "fail"})))

    return entries


_CATALOG = {e.id: e for e in _entries()}


class UnknownEntryError(KeyError):
    pass


def list_entries() -> list[tuple[str, str]]:
    return [(e.id, e.description) for e in _CATALOG.values()]


def get(entry_id: str) -> CatalogEntry:
    try:
        return _CATALOG[entry_id]
    except KeyError:
        raise UnknownEntryError(f"unknown catalog entry: {entry_id!r}") from None


def ids() -> list[str]:
    return list(_CATALOG)
