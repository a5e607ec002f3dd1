"""The term condition: matrix sets, centralizers, abelianness, and the
two-term condition, with counterexample witnesses."""

from finalg import (
    Partition,
    centralizer,
    centralizes,
    check_centrality_laws,
    certificate_from_operation,
    fixtures,
    generate_matrices,
    is_abelian,
    principal_congruence,
    two_term_condition,
)

z2, z4, s2 = fixtures.z2(), fixtures.z4(), fixtures.s2()
one2, zero2 = Partition.one(2), Partition.zero(2)

print("== matrix sets ==")
ms = generate_matrices(z2, one2, one2)
print("matrices over the two-element affine algebra:", len(ms), "(the xor-balanced 4-tuples)")

print("\n== the term condition ==")
print("affine algebra: C(1, 1; 0) =", centralizes(z2, one2, one2, zero2).holds)
verdict = centralizes(s2, one2, one2, zero2)
a, b, c, d = verdict.witness
print("semilattice:    C(1, 1; 0) =", verdict.holds, "| witness:", verdict.witness)
print(f"(the pairs ({a},{b}) and ({c},{d}) lie in one class of the diagonal congruence,")
print(" but only the first is in delta = 0)")

print("\n== centralizers ==")
theta = principal_congruence(z4, 0, 2)
print("(0 : theta) in the affine fixture:", centralizer(z4, Partition.zero(4), theta))
print("(0 : 1) in the semilattice:       ", centralizer(s2, zero2, one2))

print("\n== abelianness and the two-term condition ==")
print("theta abelian:", is_abelian(z4, theta))
print("semilattice top abelian:", is_abelian(s2, one2),
      "| two-term:", two_term_condition(s2, one2).holds)

print("\n== the law harness ==")
cert = certificate_from_operation(z4, "p")
report = check_centrality_laws(z4, certificate=cert)
for item in report.items:
    print(f"  {item.id}: {item.verdict}")
