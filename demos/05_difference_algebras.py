"""The difference algebra of an abelian congruence: the pair algebra, the
diagonal congruence, class embeddings, ranges, and the arrow graph.

The two-class generated fixture shows the non-uniform behavior: one
centralizer class contains monolith classes of sizes 4 and 2, whose ranges
are a proper chain of subgroups.
"""

from finalg import (
    arrow_graph,
    certificate_from_operation,
    delta_congruence,
    difference_algebra,
    fixtures,
    lambda_embed,
    pair_algebra,
    principal_congruence,
    range_of_class,
    verify_diffalg_theorems,
    Partition,
)
from finalg.generator import fixture_gen2

z4 = fixtures.z4()
theta = principal_congruence(z4, 0, 2)
cert = certificate_from_operation(z4, "p")

print("== the pair algebra and its diagonal congruence ==")
pa = pair_algebra(z4, theta)
print("pairs of theta:", pa.pairs)
dc = delta_congruence(pa, Partition.one(4))
print("diagonal congruence classes:",
      [[pa.pairs[i] for i in blk] for blk in dc.partition.blocks])

print("\n== the difference algebra ==")
da = difference_algebra(z4, theta, cert)
print("size:", da.algebra.size, "| derived congruence:", da.phi,
      "| canonical transversal:", da.transversal)
emb = lambda_embed(da, 0)
print("the class of 0 embeds onto the whole derived class:", emb.bijective)

print("\n== non-uniform classes in the generated fixture ==")
gen = fixture_gen2()
certg = certificate_from_operation(gen.algebra, "d")
dag = difference_algebra(gen.algebra, gen.mu, certg)
print("monolith class sizes:", sorted(len(b) for b in gen.mu.blocks))
big, small = gen.sort_elements[0], gen.sort_elements[1]
print("range of the 4-element class:", range_of_class(dag, big).elements)
print("range of the 2-element class:", range_of_class(dag, small).elements)
print("embedding at a point of the small class is proper:",
      not lambda_embed(dag, small[0]).bijective)

print("\n== the arrow graph ==")
graph = arrow_graph(dag, big[0])
print("arrows within the big centralizer class:")
for c1 in graph.nodes:
    for c2 in graph.nodes:
        if graph.arrow(c1, c2):
            print(f"  {c1} -> {c2}")
print("(ranges only grow along arrows, so no arrow runs from the big class")
print(" to the small one)")

print("\n== the theorem suite ==")
report = verify_diffalg_theorems(da)
for item in report.items:
    print(f"  {item.id}: {item.verdict}")
