"""
Defining sets and dependence witnesses
======================================

Which vertices must you look at to know the whole spin vector?  A set is
defining when its spin values extend to at most one solution.  The
obstruction is a *zebra witness*: a nonzero combination of face
equations supported inside a set, which lets one of its spins be
computed from the others.
"""

from itertools import combinations

from heawood import (
    EmbeddedCubicGraph,
    free_variable_defining_set,
    is_heawood_defining,
    is_linear_defining,
    minimal_defining_sets,
    zebra_witness,
)

prism = EmbeddedCubicGraph(
    ((5, 2, 1), (3, 0, 2), (4, 1, 0), (1, 4, 5), (3, 2, 5), (3, 4, 0)),
    outer_face_hint=(0, 1, 3, 5),
)

# The three rung pairs carry witnesses; no other 2-set does.
print("2-sets with a dependence witness:")
for pair in combinations(range(6), 2):
    witness = zebra_witness(prism, pair)
    if witness is not None:
        print(f"  {pair}: support={sorted(witness.support)}, "
              f"coefficients={witness.row_coefficients}")

# Free variables of the main system always form a defining set of size
# n-1 (non-bipartite) or n (bipartite).
free = free_variable_defining_set(prism)
print("\nfree-variable set:", sorted(free.members), "bipartite:", free.bipartite)
assert is_linear_defining(prism, free.members)

# Linear-defining implies Heawood-defining, but not conversely: every
# single vertex already pins down the prism's spin vector, while no
# single column is linearly independent enough.
print("\nsingleton sets:")
for v in range(6):
    print(f"  {{{v}}}: heawood-defining={is_heawood_defining(prism, {v})}, "
          f"linear-defining={is_linear_defining(prism, {v})}")

# Minimal defining sets: one table over all vertex masks, marking where two
# solutions agree (kernel zero sets in linear mode, pairs of Heawood vectors
# in heawood mode); exponential, guarded to 16 vertices.
print("\nminimal defining sets, heawood mode:",
      [sorted(s) for s in minimal_defining_sets(prism, mode='heawood')])
print("minimal defining sets, linear mode:",
      [sorted(s) for s in minimal_defining_sets(prism, mode='linear')])
