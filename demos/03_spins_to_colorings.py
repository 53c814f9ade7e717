"""
From spin vectors to explicit colorings and back
================================================

Around any vertex v, the colors of its three edges taken in
counterclockwise rotation order advance by the constant step sigma(v).
Fixing the color of one seed edge therefore propagates a full proper
3-edge-coloring, and reading the steps off a proper coloring recovers
the spin vector.  The order in which edges are reached depends only on
the graph and the seed edge, so the library compiles it once and replays
it for every vector.
"""

from heawood import (
    circular_ladder,
    edges,
    enumerate_heawood_vectors,
    enumerate_tait_oracle,
    heawood_to_tait,
    is_proper_coloring,
    tait_to_heawood,
)

g = circular_ladder(3)
vec = enumerate_heawood_vectors(g)[0]
print("spin vector:", vec.signs)

# Seed the edge (0, 1) with color 0 and propagate.
coloring = heawood_to_tait(g, vec, seed_edge=(0, 1), seed_color=0)
print("\nedge colors:")
for edge, color in zip(edges(g), coloring.colors):
    print(f"  {edge}: {color}")
assert is_proper_coloring(g, coloring)

# The three seed colors give the three cyclic shifts of one class.
shifted = heawood_to_tait(g, vec, seed_edge=(0, 1), seed_color=1)
assert shifted == coloring.shifted(1)
print("\nseeding with color 1 shifts every edge color by +1: ok")

# Reading the vertex steps recovers the vector exactly.
assert tait_to_heawood(g, coloring) == vec
print("roundtrip spin -> coloring -> spin: ok")

# And the reverse roundtrip holds for every coloring the oracle finds.
e0 = edges(g)[0]
slot = edges(g).index(e0)
for t in enumerate_tait_oracle(g, limit=10):
    v = tait_to_heawood(g, t)
    assert heawood_to_tait(g, v, e0, t.colors[slot]) == t
print("roundtrip coloring -> spin -> coloring on all 6 colorings: ok")
