"""Walk through the rotation algebra so(3) as a Kahler-CR structure.

H = span{e1, e2} with j acting as a quarter turn on H, paired with the
standard inner product.  Every identity is verified exactly over the
rationals, and because so(3) is semisimple the form omega is exact: it is
the Killing-dual of a single element X.
"""

from crlie import (
    catalog, check_cr, check_kahler, parse_document, semisimple_exactness,
)
from crlie.linalg import format_rat
from crlie.report import fmt_vec


def main():
    payloads = parse_document(catalog.get("so3_cr").document)
    g = payloads.algebra
    k = payloads.kahler

    print("algebra: so(3), brackets in basis e1, e2, e3:")
    table = g.table
    for a in range(3):
        for b in range(a + 1, 3):
            lhs = table.rows[a].get(b, {})
            print(f"  [e{a + 1}, e{b + 1}] = {fmt_vec(g.names, lhs, table.scale)}")

    print("\nCR conditions (bracket stability of the i-eigenspace):")
    print(check_cr(payloads.cr).to_text())

    print("\nKahler conditions (antisymmetry, closedness, nondegeneracy on H):")
    print(check_kahler(k).to_text())

    (sa, alpha), (sx, X), L, rep = semisimple_exactness(k)
    print("\nexactness on a semisimple algebra: omega(x, y) = alpha([x, y])")
    dual = ", ".join(format_rat(alpha.get(c, 0), sa) for c in range(3))
    print(f"  alpha = ({dual}) in the dual basis")
    print(f"  Killing-dual element X = {fmt_vec(g.names, X, sx)}")
    print(f"  centralizer of X has dimension {L.dim} = codim H")
    print(rep.to_text())


if __name__ == "__main__":
    main()
