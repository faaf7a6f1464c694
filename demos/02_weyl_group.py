#!/usr/bin/env python3
"""The dihedral Weyl group of type G2 and its embedding into S7.

Each of the 12 elements is determined by the first two values of its
7-permutation, and the permutation satisfies w(i) + w(8-i) = 8.
"""

from g2schubert import octonion, weyl

print("the 12 elements (word, pair, permutation):")
for w in weyl.all_elements():
    perm = " ".join(str(i) for i in w.perm)
    print(f"  {w.name:8s} l={w.length}  {w.pair[0]} {w.pair[1]}   {perm}")

s, t = weyl.element("s"), weyl.element("t")
print("\ns * s = ", (s * s).name)
print("(st)^6 =", (weyl.element('st') * weyl.element('st') *
                   weyl.element('st') * weyl.element('st') *
                   weyl.element('st') * weyl.element('st')).name)
print("inverse of st:", weyl.element("st").inverse().name)

# Bruhat order on a dihedral group is fully determined by length.
u, w = weyl.element("ts"), weyl.element("ststs")
print("\nts <= ststs:", weyl.bruhat_leq(u, w))
print("st vs ts comparable:",
      weyl.bruhat_leq(weyl.element('st'), weyl.element('ts'))
      or weyl.bruhat_leq(weyl.element('ts'), weyl.element('st')))

# The rank function that cuts out Schubert loci.
w63 = weyl.element((6, 3))
print("\nrank table of 6 3 (rows q = 1..7, columns p = 1..7):")
for q in range(1, 8):
    print("  ", [weyl.rank_fn(w63, q, p) for p in range(1, 8)])

# The pair extension is forced by the octonion kernels plus the symmetry
# constraint, and it reproduces the group-theoretic embedding.
triples = octonion.fixed_point_triples()
print("\nextend (6,3):", weyl.extend_pair(6, 3, triples))
print("agrees with the group law for all 12:",
      all(weyl.extend_pair(*w.pair, triples) == w.perm
          for w in weyl.all_elements()))
