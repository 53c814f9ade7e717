"""
Face equations over GF(3) and exact coloring counts
===================================================

Assign each vertex a spin in {+1, -1}.  A face is satisfied when its
vertex spins sum to 0 mod 3.  The everywhere-nonzero solutions of the
resulting linear system (Heawood vectors) are in 3-to-1 correspondence
with the proper 3-edge-colorings, so counting colorings is counting
everywhere-nonzero solutions.  Writing each face equation as a character
sum over Z3 leaves one integer factor per vertex over its three faces,
and summing the faces out one at a time counts the solutions without
listing them.
"""

from heawood import (
    build_main_sle,
    circular_ladder,
    count_tait_colorings_heawood,
    count_tait_oracle,
    enumerate_heawood_vectors,
    sle_rank,
)

g = circular_ladder(3)  # the triangular prism

# One face is redundant (the face rows sum to zero), so the main system
# has n+1 rows for 2n vertices; here 4 x 6.
system = build_main_sle(g)
print("main system matrix (rows = kept faces, columns = vertices):")
print(system.matrix)
print("dropped face:", system.dropped_face.vertex_cycle)

# The rank is n+1 for non-bipartite graphs and n for bipartite ones.
print("\nrank:", sle_rank(g), "(n =", g.n_vertices // 2, ")")

# Enumerating the free-variable sign patterns yields every Heawood
# vector; the prism has exactly two, opposite to each other.
for vec in enumerate_heawood_vectors(g):
    print("Heawood vector:", vec.signs)

# Each vector stands for three colorings (cyclic color shifts).  The
# algebraic count sums out the face characters one face at a time, and
# the independent brute-force oracle agrees with it.
algebraic = count_tait_colorings_heawood(g)
brute = count_tait_oracle(g)
print(f"\ncolorings: algebraic={algebraic}, oracle={brute}")
assert algebraic == brute == 6

# The same comparison on the cube graph (bipartite, rank n):
cube = circular_ladder(4)
print(
    f"cube: rank={sle_rank(cube)}, "
    f"vectors={len(enumerate_heawood_vectors(cube))}, "
    f"colorings={count_tait_colorings_heawood(cube)}, "
    f"oracle={count_tait_oracle(cube)}"
)
