"""Build the left-symmetric (pre-Lie) product on H from Kahler-CR data.

On the direct sum of two copies of the affine line algebra aff(R), the
product x * y defined by omega(x * y, u) = -omega(y, [x, u]) is computed by
exact linear solves.  Its commutator x * y - y * x recovers the original
bracket, and the associator identity that makes it left-symmetric is checked
on every basis triple.
"""

from crlie import (
    catalog, check_left_symmetric, induced_bracket, left_symmetric_product,
    parse_document,
)
from crlie.report import fmt_vec


def main():
    payloads = parse_document(catalog.get("aff_aff").document)
    g = payloads.algebra
    names = g.names
    k = payloads.kahler

    product = left_symmetric_product(k)
    print("left-symmetric product on H (zero rows omitted):")
    basis = product.H.basis
    m = len(basis)
    for a in range(m):
        for b in range(m):
            value = product.ambient(a, b)
            if any(value):
                x = fmt_vec(names, basis[a])
                y = fmt_vec(names, basis[b])
                print(f"  ({x}) * ({y}) = {fmt_vec(names, value)}")

    print("\ncommutator x*y - y*x versus the ambient bracket:")
    comm = induced_bracket(k, product)
    for a in range(m):
        for b in range(a + 1, m):
            x, y = basis[a], basis[b]
            agree = comm[(a, b)] == g.bracket(x, y)
            print(f"  [{fmt_vec(names, x)}, {fmt_vec(names, y)}]'"
                  f" = {fmt_vec(names, comm[(a, b)])}"
                  f"  (matches bracket: {agree})")

    print("\nidentity checks:")
    print(check_left_symmetric(k, product).to_text())


if __name__ == "__main__":
    main()
