import inspect
import types

import ferrersbool

ROOT_NAMES = [
    "FerrersShape",
    "GraphTooLarge",
    "MultiGraph",
    "NonIntegerResult",
    "ShapeError",
    "beta_complete_bipartite",
    "beta_edge_recursion",
    "beta_row_recursion",
    "beta_staircase_closed",
    "beta_triangle",
    "beta_via_rank",
    "beta_via_xi",
    "chat_gf_check",
    "enumerate_shapes",
    "ferrers_graph",
    "genocchi2",
    "genocchi_ls_identity",
    "iter_row_values",
    "legendre_stirling",
    "parse_edge_list",
    "parse_shape",
    "predicted_cost",
    "random_shape",
    "rank_vector",
    "rectangle",
    "staircase",
    "xi_polynomial",
]


def test_all_is_the_public_surface():
    for name in ferrersbool.__all__:
        assert hasattr(ferrersbool, name), name
    # every public non-module name the root binds is exported, and no other
    bound = {
        name
        for name, value in vars(ferrersbool).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ferrersbool.__all__) == sorted(bound)


def test_root_exports_exactly_these_names():
    assert sorted(ferrersbool.__all__) == ROOT_NAMES


def test_oracle_modules_define_no_unexported_public_function():
    # perfbench's span buckets wrap every public function; the walk and the
    # step functions stay private so edge and xi time is not counted as a row
    for module in (ferrersbool.graphs, ferrersbool.recursion):
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                assert name.startswith("_") or name in ROOT_NAMES, (module.__name__, name)


def test_graph_oracles_take_only_the_graph():
    # the vertex cap is checks.oracle_graph's alone; no oracle takes a cap knob
    oracles = ("beta_edge_recursion", "rank_vector", "beta_via_rank", "xi_polynomial", "beta_via_xi")
    for name in oracles:
        assert list(inspect.signature(getattr(ferrersbool, name)).parameters) == ["g"], name
