"""The JSON input-file format shared by the CLI and the catalog.

One format for everything: an `algebra` block plus optional `cr`, `metric`,
`poisson`, `ideal` and `extension` blocks, each enabling the corresponding
checks.  Indices are 1-based; rationals are strings "p/q" (or "p"); unlisted
brackets are zero and brackets are listed with x < y.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Optional

from .crkahler import CRData, KahlerCRData
from .lie import IntTable, LieAlgebra, StructureError
from .linalg import Matrix, Subspace, common_scale, format_rat, read_row
from .multivector import Bivector
from .poisson import PseudoPoissonData


class InputError(Exception):
    """Malformed or invalid input; `diagnostics` lists every problem found."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class Payloads:
    """A parsed document; `parse_document` sets each optional field whose block is given."""

    def __init__(self, document: dict, algebra: LieAlgebra):
        self.document, self.algebra = document, algebra
        self.cr = self.kahler = self.poisson = self.poisson_r = self.ideal = None
        self.extension = None  # the IntTable of alpha, alpha(e_a, e_b) in V


def _int(value) -> int:
    """int(value), refusing booleans and floats, which int() reads as 0/1 or truncates."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _list(block: dict, key: str, where: str, diags) -> list:
    """block[key] (default []) when it is a list; otherwise [] and a diagnostic."""
    return _build(list, block.get(key, []), where, diags) or []


def _build(build, value, where, diags):
    """build(value) for a list value; otherwise, or when build refuses it,
    None and a diagnostic."""
    if not isinstance(value, list):
        diags.append(f"{where}: must be a list")
        return None
    try:
        return build(value)
    except (ValueError, TypeError) as e:
        diags.append(f"{where}: {e}")
        return None


def _matrix(rows, n, where, diags) -> Optional[Matrix]:
    """The n x n matrix with the given rows, or None and a diagnostic."""
    m = _build(Matrix, rows, where, diags)
    if m is not None and m.cols != n:
        diags.append(f"{where}: expected {n} columns, got {m.cols}")
    elif m is not None and m.rows != n:
        diags.append(f"{where}: expected {n} rows, got {m.rows}")
    else:
        return m
    return None


def _subspace(rows, dim, where, diags) -> Optional[Subspace]:
    return _build(lambda r: Subspace.span(r, dim), rows, where, diags)


def _bivector(entries, dim, where, diags) -> Optional[Bivector]:
    """The bivector of the entries {"i", "j", "coeff"}, i < j, each
    coefficient read once, or None and a diagnostic for the first bad one."""
    coeffs = {}
    for e in entries:
        try:
            if not isinstance(e, dict):
                raise TypeError("must be an object")
            i, j = _int(e["i"]), _int(e["j"])
            t, x = read_row([e["coeff"]])
        except (KeyError, ValueError, TypeError) as err:
            diags.append(f"{where}: bad entry {e!r}: {err}")
            return None
        if not (1 <= i < j <= dim):
            diags.append(f"{where}: indices ({i},{j}) must satisfy 1 <= i < j <= {dim}")
            return None
        if (i - 1, j - 1) in coeffs:
            diags.append(f"{where}: duplicate entry for ({i},{j})")
            return None
        coeffs[(i - 1, j - 1)] = t, x.get(0, 0)
    s, ints = common_scale((t, {key: x}) for key, (t, x) in coeffs.items())
    return Bivector.from_ints(dim, s, {k: x for row in ints for k, x in row.items()})


def _table(block: dict, where: str, noun: str, dim: int, width: int, diags) -> IntTable:
    """The antisymmetric `IntTable` on dim indices of the entries
    {"x", "y", "result"} of the list that `where` names in block, for
    distinct indices 1 <= x, y <= dim and, when width >= 1, a result of width
    rationals; every other entry gets its diagnostic and is left out.  A
    pair given in both orientations must be antisymmetric, c(x,y) = -c(y,x)
    compared across the two scales; every other pair is mirrored."""
    given = {}
    for k, entry in enumerate(_list(block, where.rpartition(".")[2], where, diags)):
        at = f"{where}[{k}]"
        try:
            if not isinstance(entry, dict):
                raise TypeError("must be an object")
            x, y = _int(entry["x"]), _int(entry["y"])
            result = entry["result"]
            row = read_row(result)
        except (KeyError, ValueError, TypeError) as e:
            diags.append(f"{at}: {e}")
            continue
        if not (1 <= x <= dim and 1 <= y <= dim) or x == y:
            diags.append(f"{at}: indices ({x},{y}) out of range or equal")
        elif width >= 1 and len(result) != width:
            diags.append(f"{at}: result has {len(result)} entries, expected {width}")
        elif (x - 1, y - 1) in given:
            diags.append(f"{at}: duplicate {noun} for ({x},{y})")
        else:
            given[(x - 1, y - 1)] = row
    for i, j in sorted(ij for ij in given if ij[0] < ij[1] and ij[::-1] in given):
        (sa, a), (sb, b) = given[(i, j)], given[(j, i)]
        k = next((k for k in sorted({*a, *b}) if a.get(k, 0) * sb != -b.get(k, 0) * sa), None)
        if k is not None:
            diags.append(f"{where}: antisymmetry violated at "
                         f"({i + 1},{j + 1},{k + 1}): c={format_rat(a.get(k, 0), sa)} "
                         f"vs c={format_rat(b.get(k, 0), sb)}")
    return IntTable.antisymmetric(dim, given)


def parse_document(doc: dict) -> Payloads:
    """Validate a document into domain payloads, or raise InputError with a
    list of precise diagnostics."""
    diags: list[str] = []
    if not isinstance(doc, dict) or "algebra" not in doc:
        raise InputError(["document must be an object with an 'algebra' block"])

    for key in ("algebra", "cr", "poisson", "extension"):
        if key in doc and not isinstance(doc[key], dict):
            diags.append(f"{key}: must be an object")
    if diags:
        raise InputError(diags)

    ablock = doc["algebra"]
    try:
        dim = _int(ablock["dim"])
    except (KeyError, ValueError, TypeError):
        raise InputError(["algebra.dim: missing or not an integer"])
    if dim < 1:
        raise InputError(["algebra.dim: must be >= 1"])
    names = ablock.get("names")  # when None, LieAlgebra names the basis e1, e2, ...
    if names is not None:
        if not (isinstance(names, list) and all(isinstance(nm, str) for nm in names)):
            diags.append("algebra.names: must be a list of strings")
        elif len(names) != dim:
            diags.append(f"algebra.names: expected {dim} names, got {len(names)}")
        elif len(set(names)) != dim:
            # a witness names its basis vectors, so each name must be unique
            duplicate = next(nm for nm, count in Counter(names).items() if count > 1)
            diags.append(f"algebra.names: duplicate name {duplicate!r}")

    table = _table(ablock, "algebra.brackets", "bracket", dim, dim, diags)
    if diags:
        raise InputError(diags)

    try:
        algebra = LieAlgebra(table, names=names)
    except StructureError as e:
        raise InputError([f"algebra.brackets: {e}"])

    payloads = Payloads(document=doc, algebra=algebra)

    if "cr" in doc:
        block = doc["cr"]
        H = _subspace(block.get("H", []), dim, "cr.H", diags)
        j = _matrix(block.get("j", []), dim, "cr.j", diags)
        if H is not None and j is not None:
            try:
                payloads.cr = CRData(algebra, H, j)
            except ValueError as e:
                diags.append(f"cr: {e}")

    if "metric" in doc:
        if payloads.cr is None:
            diags.append("metric: requires a valid cr block")
        else:
            m = _matrix(doc["metric"], dim, "metric", diags)
            if m is not None:
                try:
                    payloads.kahler = KahlerCRData(payloads.cr, m)
                except ValueError as e:
                    diags.append(f"metric: {e}")

    if "poisson" in doc:
        block = doc["poisson"]
        if payloads.cr is None:
            diags.append("poisson: requires a valid cr block (for H and j)")
        else:
            U = _subspace(block.get("U", []), dim, "poisson.U", diags)
            lam = _bivector(_list(block, "lambda", "poisson.lambda", diags), dim,
                            "poisson.lambda", diags)
            if U is not None and lam is not None:
                try:
                    payloads.poisson = PseudoPoissonData(
                        algebra, payloads.cr.H, U, payloads.cr.j, lam)
                except ValueError as e:
                    diags.append(f"poisson: {e}")
            if "r" in block:
                r = _bivector(_list(block, "r", "poisson.r", diags), dim, "poisson.r", diags)
                # r = Lambda shares Lambda's object, and with it the kept [r, r]
                payloads.poisson_r = lam if r == lam else r

    if "ideal" in doc:
        if payloads.cr is None:
            diags.append("ideal: requires a valid cr block")
        else:
            payloads.ideal = _subspace(doc["ideal"], dim, "ideal", diags)

    if "extension" in doc:
        block = doc["extension"]
        if payloads.kahler is None:
            diags.append("extension: requires valid cr and metric blocks")
        else:
            try:
                v_dim = _int(block["V_dim"])
            except (KeyError, ValueError, TypeError):
                diags.append("extension.V_dim: missing or not an integer")
                v_dim = 0
            else:
                if v_dim < 1:
                    diags.append("extension.V_dim: must be >= 1")
            payloads.extension = _table(block, "extension.alpha", "alpha", dim, v_dim, diags)

    if diags:
        raise InputError(diags)
    return payloads


def parse_text(text: str) -> Payloads:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError, or an over-long integer
        raise InputError([f"not valid JSON: {e}"])
    return parse_document(doc)


def dump_document(doc: dict) -> str:
    """Deterministic serialization; documents built with stable key order
    round-trip byte-identically."""
    return json.dumps(doc, indent=2) + "\n"
