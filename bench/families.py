"""Seeded generators of crlie input documents with verdicts known by construction.

Every generator returns a `Case`: a JSON-ready input document in the format
`crlie check` reads, plus the exact map check_id -> "pass"/"fail" that the
structured report must contain.  The expectations come from the construction
(block structure, the one defect planted), never from running crlie.

Families (k is the rung; all indices below are 1-based as in the documents):

* aff(R)^k            [e_{2i-1}, e_{2i}] = e_{2i}; H = G, rotation j, metric I.
* heisenberg(k)       abelian R^{2k} extended by V = R^k, alpha(e_{2i-1}, e_{2i}) = v_i.
* so(3)^k             blockwise H = span{e_{3i+1}, e_{3i+2}}, rotation j, metric I,
                      Lambda = r = sum e_{3i+1}^e_{3i+2}, U = span{e_{3i+3}}.
* so(3)+R^{2k}        CR and Poisson blocks only; Lambda = r = e1^e2 + sum_{i=1..k} e_{2i+2}^e_{2i+3}.

Defect families (each carries exactly one planted defect):

* coupled metric      aff(R)^k with metric I + 1/2 (coupling of neighbouring blocks);
                      the metric commutes with j, so omega stays antisymmetric and
                      nondegenerate, but d omega(e1, e2, e3) = omega(e2, e3) = 1/2.
* bad j               aff(R)^k with j exchanging the first two aff blocks; condition
                      (3) fails on (e1, e2): [je1, je2] = e4 but [e1, e2] = e2.
* bad alpha           abelian R^{2k} by V = R, alpha = e^1^e^3 + sum_{i>=3} e^{2i-1}^e^{2i};
                      the e^1^e^3 term is not j-invariant, everything else passes.
* mixed r             so(3)+R^{2k-1}, H = G, U = {0}, Lambda = r = e1^e2 + e1^e4;
                      [r, r] has an e1^e3^e4 term, so membership, j-invariance and
                      coboundary invariance fail.

`rebase` rewrites a document in the basis given by the columns of an integer
matrix P with det 1; every identity checked by crlie is basis-free, so the
expectations carry over unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

PASS, FAIL = "pass", "fail"

CR_IDS = ("cr.condition2", "cr.condition3")
KAHLER_IDS = ("kahler.omega_antisymmetric", "kahler.omega_closed",
              "kahler.omega_h_nondegenerate")
DERIVED_IDS = ("leftsym.identity1", "leftsym.jacobi_induced", "leftsym.identity2",
               "radical.subalgebra", "radical.orthogonal_h",
               "center_u.commutative", "center_u.stabilizes_h")
EXACTNESS_IDS = ("exactness.alpha_exact", "exactness.killing_dual",
                 "exactness.radical_match")
POISSON_IDS = ("poisson.schouten_membership", "poisson.j_invariance")
COBOUNDARY_ID = "poisson.coboundary_invariance"
EXTENSION_IDS = ("extension.jacobi", "extension.alpha_j_invariant",
                 "extension.cyclic", "extension.omega_closed")


@dataclass(frozen=True)
class Case:
    name: str       # family and rung, e.g. "aff^3"
    dim: int
    document: dict
    expected: dict  # check_id -> "pass" | "fail", the complete set the report must hold


def _verdicts(*ids, fail=()):
    return {cid: (FAIL if cid in fail else PASS) for cid in ids}


# -- plain-matrix helpers (lists of Fractions) --------------------------------

def _identity(n):
    return [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]


def _rotation(n, pairs):
    """j with j e_a = e_b and j e_b = -e_a for each (a, b) in pairs (0-based)."""
    j = [[Fraction(0)] * n for _ in range(n)]
    for a, b in pairs:
        j[b][a] = Fraction(1)
        j[a][b] = Fraction(-1)
    return j


def _unit(n, i):
    return [Fraction(int(t == i)) for t in range(n)]


# -- document assembly ---------------------------------------------------------

def _s(q) -> str:
    return str(Fraction(q))


def _rows(m):
    return [[_s(e) for e in row] for row in m]


def _document(n, brackets, H, j, metric=None, poisson=None, extension=None):
    """brackets: {(a, b): vector} with a < b, 0-based; poisson: (U rows,
    {(a, b): coeff} lambda, r or None); extension: (V_dim, {(a, b): vector})."""
    doc = {
        "algebra": {
            "dim": n,
            "names": [f"e{i + 1}" for i in range(n)],
            "brackets": [{"x": a + 1, "y": b + 1, "result": [_s(e) for e in v]}
                         for (a, b), v in sorted(brackets.items())
                         if any(e != 0 for e in v)],
        },
        "cr": {"H": _rows(H), "j": _rows(j)},
    }
    if metric is not None:
        doc["metric"] = _rows(metric)
    if poisson is not None:
        U, lam, r = poisson
        block = {"U": _rows(U), "lambda": _bivector_entries(lam)}
        if r is not None:
            block["r"] = _bivector_entries(r)
        doc["poisson"] = block
    if extension is not None:
        v_dim, alpha = extension
        doc["extension"] = {
            "V_dim": v_dim,
            "alpha": [{"x": a + 1, "y": b + 1, "result": [_s(e) for e in v]}
                      for (a, b), v in sorted(alpha.items())
                      if any(e != 0 for e in v)]}
    return doc


def _bivector_entries(b):
    return [{"i": a + 1, "j": c + 1, "coeff": _s(v)}
            for (a, c), v in sorted(b.items()) if v != 0]


# -- structure constants ----------------------------------------------------------

def _aff_brackets(k):
    n = 2 * k
    return {(2 * i, 2 * i + 1): _unit(n, 2 * i + 1) for i in range(k)}


def _so3_brackets(n, offset):
    a, b, c = offset, offset + 1, offset + 2
    return {(a, b): _unit(n, c),
            (a, c): [-e for e in _unit(n, b)],
            (b, c): _unit(n, a)}


# -- positive families ----------------------------------------------------------------

def aff_power(k: int) -> Case:
    n = 2 * k
    doc = _document(n, _aff_brackets(k), _identity(n),
                    _rotation(n, [(2 * i, 2 * i + 1) for i in range(k)]),
                    metric=_identity(n))
    return Case(f"aff^{k}", n, doc,
                _verdicts(*CR_IDS, *KAHLER_IDS, *DERIVED_IDS))


def heisenberg(k: int) -> Case:
    n = 2 * k
    alpha = {(2 * i, 2 * i + 1): _unit(k, i) for i in range(k)}
    doc = _document(n, {}, _identity(n),
                    _rotation(n, [(2 * i, 2 * i + 1) for i in range(k)]),
                    metric=_identity(n), extension=(k, alpha))
    return Case(f"heis^{k}", n, doc,
                _verdicts(*CR_IDS, *KAHLER_IDS, *DERIVED_IDS, *EXTENSION_IDS))


def so3_power(k: int, poisson: bool = True) -> Case:
    n = 3 * k
    brackets = {}
    for i in range(k):
        brackets.update(_so3_brackets(n, 3 * i))
    H = [_unit(n, 3 * i + t) for i in range(k) for t in (0, 1)]
    j = _rotation(n, [(3 * i, 3 * i + 1) for i in range(k)])
    ids = [*CR_IDS, *KAHLER_IDS, *DERIVED_IDS, *EXACTNESS_IDS]
    block = None
    if poisson:
        lam = {(3 * i, 3 * i + 1): 1 for i in range(k)}
        block = ([_unit(n, 3 * i + 2) for i in range(k)], lam, dict(lam))
        ids += [*POISSON_IDS, COBOUNDARY_ID]
    doc = _document(n, brackets, H, j, metric=_identity(n), poisson=block)
    return Case(f"so3^{k}", n, doc, _verdicts(*ids))


def so3_plus_abelian(k: int, with_r: bool = True) -> Case:
    n = 3 + 2 * k
    pairs = [(0, 1)] + [(3 + 2 * i, 4 + 2 * i) for i in range(k)]
    H = [_unit(n, t) for pair in pairs for t in pair]
    lam = {pair: 1 for pair in pairs}
    ids = [*CR_IDS, *POISSON_IDS] + ([COBOUNDARY_ID] if with_r else [])
    doc = _document(n, _so3_brackets(n, 0), H, _rotation(n, pairs),
                    poisson=([_unit(n, 2)], lam, dict(lam) if with_r else None))
    return Case(f"so3+r^{2 * k}", n, doc, _verdicts(*ids))


# -- defect families ----------------------------------------------------------------------

def aff_coupled_metric(k: int) -> Case:
    if k < 2:
        raise ValueError("the coupled metric needs two aff blocks")
    n = 2 * k
    metric = _identity(n)
    for i in range(k - 1):
        for t in (0, 1):
            a, b = 2 * i + t, 2 * i + 2 + t
            metric[a][b] = metric[b][a] = Fraction(1, 2)
    doc = _document(n, _aff_brackets(k), _identity(n),
                    _rotation(n, [(2 * i, 2 * i + 1) for i in range(k)]),
                    metric=metric)
    return Case(f"aff_coupled^{k}", n, doc,
                _verdicts(*CR_IDS, *KAHLER_IDS, fail=("kahler.omega_closed",)))


def aff_bad_j(k: int) -> Case:
    if k < 2:
        raise ValueError("a crossing j needs two aff blocks")
    n = 2 * k
    j = _rotation(n, [(0, 2), (1, 3)] + [(2 * i, 2 * i + 1) for i in range(2, k)])
    doc = _document(n, _aff_brackets(k), _identity(n), j)
    return Case(f"aff_bad_j^{k}", n, doc,
                _verdicts(*CR_IDS, fail=("cr.condition3",)))


def abelian_bad_alpha(k: int) -> Case:
    if k < 2:
        raise ValueError("the non-invariant alpha needs two rotation blocks")
    n = 2 * k
    alpha = {(0, 2): [Fraction(1)]}
    alpha.update({(2 * i, 2 * i + 1): [Fraction(1)] for i in range(2, k)})
    doc = _document(n, {}, _identity(n),
                    _rotation(n, [(2 * i, 2 * i + 1) for i in range(k)]),
                    metric=_identity(n), extension=(1, alpha))
    return Case(f"bad_alpha^{k}", n, doc,
                _verdicts(*CR_IDS, *KAHLER_IDS, *DERIVED_IDS, *EXTENSION_IDS,
                          fail=("extension.alpha_j_invariant",)))


def so3_mixed_r(k: int) -> Case:
    n = 2 * k + 2
    lam = {(0, 1): 1, (0, 3): 1}
    doc = _document(n, _so3_brackets(n, 0), _identity(n),
                    _rotation(n, [(2 * i, 2 * i + 1) for i in range(k + 1)]),
                    poisson=([], lam, dict(lam)))
    return Case(f"mixed_r^{k}", n, doc,
                _verdicts(*CR_IDS, *POISSON_IDS, COBOUNDARY_ID,
                          fail=(*POISSON_IDS, COBOUNDARY_ID)))


# -- seeded basis change ------------------------------------------------------------------

def unimodular(n: int, rng: random.Random):
    """A det-1 integer matrix P and its inverse Q, both with entries in
    {-1, 0, 1}, as a product of random transvections row_a += s * row_b.

    A transvection is kept only when P and Q both stay in {-1, 0, 1}.  After
    50 n^2 attempts the walk has settled near its equilibrium density (about
    half the entries nonzero), so every seed gives documents of about the
    same density and cost.
    """
    P = [[int(a == b) for b in range(n)] for a in range(n)]
    Q = [row[:] for row in P]
    if n < 2:
        return P, Q
    for _ in range(50 * n * n):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        new_row = [x + s * y for x, y in zip(P[a], P[b])]
        # P <- E P with E = I + s e_a e_b^T, so Q <- Q E^{-1}: col_b -= s * col_a
        new_col = [row[b] - s * row[a] for row in Q]
        if all(abs(x) <= 1 for x in new_row + new_col):
            P[a] = new_row
            for row, x in zip(Q, new_col):
                row[b] = x
    return P, Q


def dense_basis(n: int, rng: random.Random):
    """The basis change of a dense document: P = D S and Q = P^-1.

    D comes from `unimodular` on a stream fixed per dimension, so every seed
    gets a basis of the same density; drawing D per seed made the cost of
    one document vary by 15-25% from seed to seed.  S is a seeded signed
    permutation with det 1: it reorders the columns of D and flips their
    signs.  P keeps det 1 and entries in {-1, 0, 1}.
    """
    D, D_inv = unimodular(n, random.Random(f"dense:{n}"))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    if _parity(perm) * math.prod(signs) < 0:
        signs[-1] = -signs[-1]
    # S e_i = signs[i] e_perm[i]; S^-1 = S^T
    P = [[D[a][perm[i]] * signs[i] for i in range(n)] for a in range(n)]
    Q = [[D_inv[perm[i]][b] * signs[i] for b in range(n)] for i in range(n)]
    return P, Q


def _parity(perm):
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def rebase(case: Case, P, Q) -> Case:
    """Rewrite the document in the basis f_i = sum_t P[t][i] e_t (Q = P^-1).

    Vectors map by Q, j by Q j P, the metric by P^T M P, bivectors by
    Q (x) Q, and the base-side arguments of brackets and alpha by P.
    """
    doc = case.document
    n = doc["algebra"]["dim"]
    F = Fraction

    def vec(v):
        return [sum(F(Q[a][t]) * v[t] for t in range(n) if v[t]) for a in range(n)]

    def mat(rows):
        return [[F(e) for e in row] for row in rows]

    def matmul(A, B):
        return [[sum(A[a][t] * B[t][b] for t in range(len(B)) if A[a][t])
                 for b in range(len(B[0]))] for a in range(len(A))]

    def pairs(table, width):
        """Antisymmetric bilinear map given on e-pairs a < b, evaluated on f-pairs."""
        full = {}
        for (a, b), v in table.items():
            full[(a, b)] = v
            full[(b, a)] = [-e for e in v]
        out = {}
        for x in range(n):
            for y in range(x + 1, n):
                acc = [F(0)] * width
                for (a, b), v in full.items():
                    c = P[a][x] * P[b][y]
                    if c:
                        acc = [s + c * e for s, e in zip(acc, v)]
                out[(x, y)] = acc
        return out

    def bivector(entries):
        full = {}
        for e in entries:
            a, b, c = e["i"] - 1, e["j"] - 1, F(e["coeff"])
            for x in range(n):
                for y in range(x + 1, n):
                    w = c * (Q[x][a] * Q[y][b] - Q[x][b] * Q[y][a])
                    if w:
                        full[(x, y)] = full.get((x, y), 0) + w
        return full

    alg = doc["algebra"]
    brackets = {(e["x"] - 1, e["y"] - 1): [F(v) for v in e["result"]]
                for e in alg["brackets"]}
    new_brackets = {key: vec(v) for key, v in pairs(brackets, n).items()}
    Pm = mat(P)
    Qm = mat(Q)
    PT = [list(col) for col in zip(*Pm)]
    H = [vec([F(e) for e in row]) for row in doc["cr"]["H"]]
    j = matmul(matmul(Qm, mat(doc["cr"]["j"])), Pm)
    metric = (matmul(matmul(PT, mat(doc["metric"])), Pm)
              if "metric" in doc else None)
    poisson = None
    if "poisson" in doc:
        block = doc["poisson"]
        poisson = ([vec([F(e) for e in row]) for row in block["U"]],
                   bivector(block["lambda"]),
                   bivector(block["r"]) if "r" in block else None)
    extension = None
    if "extension" in doc:
        block = doc["extension"]
        alpha = {(e["x"] - 1, e["y"] - 1): [F(v) for v in e["result"]]
                 for e in block["alpha"]}
        extension = (block["V_dim"], pairs(alpha, block["V_dim"]))
    new = _document(n, new_brackets, H, j, metric, poisson, extension)
    return Case(case.name + "@dense", case.dim, new, dict(case.expected))


# -- workloads ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    ladder: tuple   # (generator, k) rungs, timed in this order after a seeded shuffle
    top: str        # name of the rung reported as top_rung_s (timed last)
    cli: str        # name of the rung run through `python -m crlie.cli`
    dense: bool     # rewrite every document in a seeded det-1 basis
    anchors: tuple  # catalog entries reproduced by the smallest rungs


WORKLOADS = {
    "kahler_solvable": Workload(
        ladder=((aff_power, 2), (aff_power, 3),
                (heisenberg, 1), (heisenberg, 2)),
        top="aff^3", cli="heis^2", dense=False,
        anchors=("aff_aff", "heisenberg")),
    "semisimple_poisson": Workload(
        ladder=((so3_power, 1), (so3_power, 2),
                (so3_plus_abelian, 1), (so3_plus_abelian, 2), (so3_plus_abelian, 3)),
        top="so3^2", cli="so3+r^6", dense=False,
        anchors=("so3_cr", "so3_x_r2")),
    "reject_dense": Workload(
        ladder=((aff_coupled_metric, 2), (aff_coupled_metric, 3), (aff_coupled_metric, 4),
                (aff_bad_j, 2), (aff_bad_j, 3), (aff_bad_j, 4),
                (abelian_bad_alpha, 2),
                (so3_mixed_r, 1), (so3_mixed_r, 2), (so3_mixed_r, 3)),
        top="aff_coupled^4", cli="aff_coupled^3", dense=True,
        anchors=("affxaff_bad_j", "r4_ext_bad_alpha", "so3_r_mixed")),
}

# Catalog entry -> the smallest rung of a family, in the standard basis and
# with only the blocks the catalog entry carries.
ANCHORS = {
    "aff_aff": lambda: aff_power(2),
    "heisenberg": lambda: heisenberg(1),
    "so3_cr": lambda: so3_power(1, poisson=False),
    "so3_x_r2": lambda: so3_plus_abelian(1, with_r=False),
    "affxaff_bad_j": lambda: aff_bad_j(2),
    "r4_ext_bad_alpha": lambda: abelian_bad_alpha(2),
    "so3_r_mixed": lambda: so3_mixed_r(1),
}


def workload_cases(workload: str, seed: int) -> list:
    """The ladder of a workload with its top rung last.

    The seed drives the basis change of a dense workload and the order of
    the other rungs; on a sparse workload the documents do not depend on it.
    """
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    cases = [gen(k) for gen, k in spec.ladder]
    if spec.dense:
        cases = [rebase(c, *dense_basis(c.dim, rng)) for c in cases]
    top = next(c for c in cases if c.name.split("@")[0] == spec.top)
    rest = [c for c in cases if c is not top]
    rng.shuffle(rest)
    return rest + [top]
