"""Build the left-symmetric (pre-Lie) product on H from Kahler-CR data.

On the direct sum of two copies of the affine line algebra aff(R), the
product x * y defined by omega(x * y, u) = -omega(y, [x, u]) is computed by
exact linear solves.  Its commutator x * y - y * x recovers the original
bracket, and the associator identity that makes it left-symmetric is checked
on every basis triple.
"""

from crlie import catalog, check_left_symmetric, left_symmetric_product, parse_document
from crlie.linalg import contraction
from crlie.report import fmt_vec


def main():
    payloads = parse_document(catalog.get("aff_aff").document)
    g = payloads.algebra
    names, basis = g.names, payloads.cr.basis_names
    k = payloads.kahler

    product = left_symmetric_product(k)
    # each value is read from the integer table in H-coordinates and mapped
    # into G through the integer basis of H, so it is s_P s_H times the vector
    H, P = product.H, product.P
    rows, s = dict(enumerate(H.ints)), product.scale * H.scale
    print("left-symmetric product on H (zero rows omitted):")
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            value = contraction([(1, P[a].get(b, {}), rows)])
            if value:
                print(f"  ({x}) * ({y}) = {fmt_vec(names, value, s)}")

    print("\ncommutator x*y - y*x versus the ambient bracket:")
    # the table evaluates to t [h_a, h_b] for t = s_c s_H^2, and comm is
    # s (h_a h_b - h_b h_a), so the two agree exactly when t comm = s bracket
    brackets, t = g.table.evaluate(H.ints), g.table.scale * H.scale * H.scale
    for a, x in enumerate(basis):
        for b in range(a + 1, len(basis)):
            comm = contraction([(1, product.commutator(a, b), rows)])
            bracket = brackets.get((a, b), {})
            agree = ({i: t * v for i, v in comm.items()}
                     == {i: s * v for i, v in bracket.items()})
            print(f"  [{x}, {basis[b]}]' = {fmt_vec(names, comm, s)}"
                  f"  (matches bracket: {agree})")

    print("\nidentity checks:")
    print(check_left_symmetric(k, product).to_text())


if __name__ == "__main__":
    main()
