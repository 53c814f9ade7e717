"""The package namespace: the public names the submodules re-export."""

import heawood

PUBLIC_NAMES = {
    # colorings, defining
    "TaitColoring", "FreeVariableSet", "VertexSet", "ZebraWitness", "combination_support",
    "free_variable_defining_set", "is_heawood_defining", "is_linear_defining",
    "minimal_defining_sets", "zebra_witness",
    # errors
    "ContractionError", "EnumerationLimitError", "FaceTraversalError", "GraphFormatError",
    "HeawoodError", "ImproperColoringError", "InvalidGraphError", "NotAHeawoodVectorError",
    "NotBipartiteError", "SubsetSearchLimitError",
    # families
    "catalog", "circular_ladder", "cln_formula", "count_zero_sum_sequences", "k4",
    "mobius_formula", "mobius_ladder", "petersen",
    # graphs
    "Bipartition", "CubicGraph", "EmbeddedCubicGraph", "Face", "ValidationReport",
    "edges", "format_graph", "incident_edges_ccw", "is_bipartite", "load_cubic", "load_graph",
    "parse_cubic", "parse_graph", "relabel", "trace_faces", "validate",
    # oracle
    "bipartite_tait_construct", "count_tait_oracle", "enumerate_tait_oracle",
    "is_proper_coloring",
    # spins
    "HeawoodSystem", "HeawoodVector", "bipartite_heawood_vector", "build_main_sle",
    "contract_triangle", "count_tait_colorings_heawood", "enumerate_heawood_vectors",
    "heawood_to_tait", "sle_rank", "tait_to_heawood",
}


def test_public_names_pinned_and_resolved():
    assert len(PUBLIC_NAMES) == 58
    assert len(heawood.__all__) == len(set(heawood.__all__))
    assert set(heawood.__all__) == PUBLIC_NAMES
    namespace: dict = {}
    exec("from heawood import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert not {"Edge", "Dart"} & set(namespace)
