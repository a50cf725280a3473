"""Building the homomorphism family at p = 7 and certifying surjectivity.

Two free groups map onto G(7) = A(7) x| PSL2(F_7): the left one through
vector-decorated generators chosen so the paired projective images keep a
spectral gap, the right one through a single decoration by (1,-1,0,...,0),
whose small boundary is what kills expansion on that side.
"""

from soficlab.algebra import psl2_order
from soficlab.groups import (
    bfs_closure_order,
    build_hom_specs,
    hom_family_to_json,
    verify_surjectivity,
)

family = build_hom_specs(7, 5, 3)
print(f"p = 7, companion prime r = {family.r_p}")
print("generation checks:")
for name, check in family.checks.items():
    print(f"  {name}: reached {check['order']} of {check['expected']}")

print("\ngenerator images:")
for name in ("phi", "rho", "zeta"):
    spec = family[name]
    for g in spec.gen_names:
        print(f"  {name}({g}) = {spec.image(g)!r}")

print("\npaired closure of the undecorated left generators:")
eta = family["eta"]
order = bfs_closure_order([eta.image("a1"), eta.image("a2")],
                          order_bound=psl2_order(7) * psl2_order(11))
print(f"  {order} elements = {psl2_order(7)} x {psl2_order(11)}")

print("\nsurjectivity certificates:")
for name in ("phi", "rho", "phi_tilde", "rho_tilde"):
    cert = verify_surjectivity(family[name], family)
    # a product target is certified through its G(p) factor
    details = cert.details.get("left_factor", cert.details)
    print(f"  {name}: onto={cert.ok} via {cert.route}, "
          f"closure dim {details.get('closure_dim', '-')}")

doc = hom_family_to_json(family)
print(f"\nserialized family: {len(doc)} bytes of versioned JSON")
