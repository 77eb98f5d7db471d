"""Pseudo-Poisson structures and coboundary r-matrices on sl(2, R).

The bivector Lambda = e ^ f fails the classical Yang-Baxter equation
([Lambda, Lambda] = 2 e^f^h is nonzero) but satisfies the weaker membership
condition [Lambda, Lambda] in U ^ Lambda^2 G for U = span{h}.  The same
bivector used as a constant r-matrix yields a coboundary tensor whose
invariance condition holds for every choice of U.
"""

from crlie import (
    catalog, check_j_invariance, check_pseudo_poisson, coboundary_pi, parse_document, schouten,
)


def main():
    payloads = parse_document(catalog.get("sl2").document)
    g = payloads.algebra
    d = payloads.poisson

    t = schouten(g, d.Lambda, d.Lambda)
    print(f"[Lambda, Lambda] = {t.format(g.names)}")
    print("\nmembership and invariance checks:")
    print(check_pseudo_poisson(d).to_text())
    print(check_j_invariance(d).to_text())

    r = payloads.poisson_r
    print("\ncoboundary tensor: pi = right_invariant(r) - left_invariant(r)")
    print(coboundary_pi(g, r, d.U).to_text())


if __name__ == "__main__":
    main()
