"""
Certifying monogenicity and the lowering property
=================================================

The verifier expands each phi_k into a genuine multivariate polynomial
with Clifford coefficients, applies the conjugate Cauchy-Riemann
operator, and demands the exact zero polynomial.  No floating point,
no sampling: a pass here is a proof for the stated degrees.
"""

import json

from hyperappell import (
    build_family,
    build_phi,
    certify,
    check_intertwining,
    coefficient_sequence,
    cr,
    cr_bar,
    expand_sequence,
)

# A full certificate for the Hermite family at n = 3.
seq = build_family(3, 6, "hermite")
report = certify(seq)
print("hermite n=3 m=6 certified:", report.ok)
for row in report.results:
    print(f"  k={row.k}  monogenic={row.monogenic}  ladder={row.ladder}")

# The two operators in play: cr_bar annihilates the sequence, cr lowers
# the degree with factor k.
polys = expand_sequence(seq)
print("\ncr_bar(phi_3) =", cr_bar(polys[3]))
print("cr(phi_3) == 3 phi_2:", cr(polys[3]) == polys[2] * 3)

# Negative control: bump one interior coefficient and the certificate
# fails right where it should, with a concrete residual term.
good = coefficient_sequence(2, 4)
bad = good.with_value(2, good.values[2] + 1)
broken = certify(build_phi(bad))
print("\ncorrupted c_2 certified:", broken.ok)
for row in broken.results:
    if not row.passed:
        print(f"  first failure at k={row.k}, witness:")
        print(json.dumps(row.witness, indent=2, sort_keys=True))
        break

# Shifted coefficient families satisfy the matrix intertwining relation
# H D + D H~ = O even though they are not themselves monogenic.
coeffs = coefficient_sequence(2, 8, shift=1)
print("\nintertwining, n=2 s=1 m=8:", check_intertwining(2, 1, 8, coeffs))
