import decimal
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ferrersbool import (
    beta_complete_bipartite,
    beta_triangle,
    boolcomplex,
    graphs,
    parse_shape,
    rectangle,
    recursion,
    sequences,
    staircase,
    triangle,
)
from ferrersbool.cli import (
    _DECIMAL_CUT_BITS,
    _DECIMAL_LEAF_BITS,
    EXIT_CAP,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    _decimal_text,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_beta_plain(capsys):
    code, out, _ = run(capsys, "beta", "--shape", "3,2,1")
    assert code == EXIT_OK and out.strip() == "8"


def test_beta_zero_row(capsys):
    code, out, _ = run(capsys, "beta", "--shape", "4,0")
    assert code == EXIT_OK and out.strip() == "0"


@pytest.mark.parametrize("method", ["triangle", "row", "edge", "rank", "xi"])
def test_beta_methods_agree(capsys, method):
    code, out, _ = run(capsys, "beta", "--shape", "3,2,1", "--method", method)
    assert code == EXIT_OK and out.strip() == "8"


def test_beta_json_round_trips(capsys):
    code, out, _ = run(capsys, "beta", "--shape", "3,2,1", "--format", "json")
    assert code == EXIT_OK
    text = out.strip()
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text
    assert json.loads(text)["beta"] == "8"


def test_beta_bad_shape(capsys):
    code, _, err = run(capsys, "beta", "--shape", "2,3")
    assert code == EXIT_INPUT and "input error" in err


@pytest.mark.parametrize("command", ["beta", "complex"])
def test_beta_needs_one_source(capsys, command):
    for argv in ([command], [command, "--shape", "1", "--graph", "whatever"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1


def test_beta_cap_exceeded(capsys):
    code, _, err = run(
        capsys, "beta", "--shape", "3,2,1", "--method", "rank", "--cap-vertices", "2"
    )
    assert code == EXIT_CAP and "cap exceeded" in err


def test_beta_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("FB_CAP_VERTICES", "2")
    code, _, _ = run(capsys, "beta", "--shape", "3,2,1", "--method", "rank")
    assert code == EXIT_CAP


@pytest.mark.parametrize("value", ["abc", "0"])
def test_beta_cap_env_var_invalid(capsys, monkeypatch, value):
    monkeypatch.setenv("FB_CAP_VERTICES", value)
    code, out, err = run(capsys, "beta", "--shape", "2,1", "--method", "edge")
    assert code == EXIT_INPUT and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: FB_CAP_VERTICES ")


# every command that reads a graph file
GRAPH_ROUTES = [
    ("beta", "--method", "edge"),
    ("beta", "--method", "rank"),
    ("beta", "--method", "xi"),
    ("complex",),
]


def test_beta_graph_file(capsys, tmp_path):
    path = tmp_path / "k22.txt"
    path.write_text("4 4\n0 2\n0 3\n1 2\n1 3\n")
    code, out, _ = run(capsys, "beta", "--graph", str(path))
    assert code == EXIT_OK and out.strip() == "5"
    code, out, _ = run(capsys, "beta", "--graph", str(path), "--method", "rank")
    assert code == EXIT_OK and out.strip() == "5"
    code, _, _ = run(capsys, "beta", "--graph", str(path), "--method", "triangle")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("argv", GRAPH_ROUTES)
def test_graph_file_repeated_line(capsys, tmp_path, argv):
    # a repeated line is read once, so no route's answer depends on it
    once = tmp_path / "c5.txt"
    once.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    twice = tmp_path / "c5-repeated.txt"
    twice.write_text("5 6\n0 1\n1 2\n2 3\n3 4\n0 4\n2 1\n")
    expected = run(capsys, argv[0], "--graph", str(once), *argv[1:])
    assert expected[0] == EXIT_OK and expected[1].strip()
    assert run(capsys, argv[0], "--graph", str(twice), *argv[1:]) == expected


def test_graph_file_many_repeats_xi(capsys, tmp_path):
    # xi deletes one parallel copy per step, so repeats kept as copies
    # would drive its recursion as deep as their number
    path = tmp_path / "k2-repeated.txt"
    path.write_text("2 1000\n" + "0 1\n" * 1000)
    code, out, _ = run(capsys, "beta", "--graph", str(path), "--method", "xi")
    assert code == EXIT_OK and out.strip() == "1"


def test_beta_graph_missing_file(capsys):
    code, _, err = run(capsys, "beta", "--graph", "/nonexistent/file.txt")
    assert code == EXIT_INPUT


def test_beta_graph_isolated_vertex(capsys, tmp_path):
    path = tmp_path / "iso.txt"
    path.write_text("3 1\n0 1\n")
    code, out, _ = run(capsys, "beta", "--graph", str(path))
    assert code == EXIT_OK and out.strip() == "0"


@pytest.mark.parametrize("argv", GRAPH_ROUTES)
def test_graph_negative_vertex_count(capsys, tmp_path, argv):
    path = tmp_path / "negative.txt"
    path.write_text("-1 0\n")
    code, out, err = run(capsys, argv[0], "--graph", str(path), *argv[1:])
    assert code == EXIT_INPUT and out == ""
    assert "input error" in err and "Traceback" not in err


def test_beta_prints_values_past_4300_digits(capsys):
    shape = str(rectangle(2, 20000))
    code, out, _ = run(capsys, "beta", "--shape", shape)
    assert code == EXIT_OK
    # main lifted the int-to-str digit limit, so the test can format too
    expected = str(2**20001 - 3)
    assert len(expected) == 6021 and out.strip() == expected
    code, out, _ = run(capsys, "beta", "--shape", shape, "--format", "json")
    assert code == EXIT_OK and json.loads(out)["beta"] == expected


def test_huge_row_difference(capsys):
    # d = 10**50 - 1 on row 2: the kernel raises k**d only for columns 0 and 1
    shape = f"{10**50},1"
    code, out, _ = run(capsys, "beta", "--shape", shape)
    assert code == EXIT_OK and out.strip() == "2"
    code, out, _ = run(capsys, "triangle", "--shape", shape)
    assert code == EXIT_OK and out.splitlines() == ["-1\t1", "0\t-2\t2"]


@pytest.fixture
def unlimited_str_digits():
    """Lift Python's int-to-str digit limit, so str() can be the reference."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


def test_decimal_text_matches_str(unlimited_str_digits):
    values = [0, 1, -1]
    for k in (_DECIMAL_LEAF_BITS, _DECIMAL_CUT_BITS, 2 * _DECIMAL_CUT_BITS):
        values += [2**k - 1, 2**k, 2**k + 1]
    # 10**m has m trailing zero digits: a converter that joins the halves'
    # digits without padding the low half drops them
    m = _DECIMAL_CUT_BITS // 3 + 7
    values += [10**m - 1, 10**m, 10**m + 1, 7 * 10**m + 3]
    rng = random.Random(20)
    values += [rng.getrandbits(rng.randint(1, 200_000)) | 1 for _ in range(5)]
    values += [-v for v in values[3::3]]  # every third value past 0 and ±1, negated
    for n in values:
        assert _decimal_text(n) == str(n), n.bit_length()


def test_beta_above_the_decimal_cut(capsys, unlimited_str_digits):
    length = 60_000
    value = beta_complete_bipartite(3, length)
    assert value.bit_length() > _DECIMAL_CUT_BITS
    expected = str(value)
    shape = ",".join([str(length)] * 3)
    code, out, _ = run(capsys, "beta", "--shape", shape)
    assert code == EXIT_OK and out == expected + "\n"
    code, out, _ = run(capsys, "beta", "--shape", shape, "--format", "json")
    assert code == EXIT_OK and json.loads(out)["beta"] == expected


def test_decimal_output_leaves_the_decimal_context_alone(capsys):
    # calls are pure: writing a value above the cut must not touch the
    # thread's decimal context; a fresh default context makes the check
    # independent of what ran before in this process
    with decimal.localcontext(decimal.Context()) as context:
        saved = (context.prec, context.Emax, context.Emin, dict(context.traps))
        code, out, _ = run(capsys, "beta", "--shape", "50000,50000,50000")
        assert code == EXIT_OK and int(out).bit_length() > _DECIMAL_CUT_BITS
        context = decimal.getcontext()
        assert (context.prec, context.Emax, context.Emin, dict(context.traps)) == saved


def test_triangle_tsv(capsys):
    code, out, _ = run(capsys, "triangle", "--shape", "3,2,1")
    assert code == EXIT_OK
    assert out.splitlines() == ["-1\t1", "0\t-2\t2", "0\t4\t-16\t12"]


def test_triangle_json_round_trips(capsys):
    code, out, _ = run(capsys, "triangle", "--shape", "7,7,7,6,4,4,2", "--format", "json")
    assert code == EXIT_OK
    text = out.strip()
    assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text
    rows = json.loads(text)
    assert rows[-1][-2:] == ["-22101120", "8709120"]


def test_triangle_json_single_row(capsys):
    code, out, _ = run(capsys, "triangle", "--shape", "5", "--format", "json")
    assert code == EXIT_OK and out == '[["-1","1"]]\n'


@pytest.mark.parametrize("shape", [str(staircase(30)), "5,5,3,0"], ids=["staircase-30", "zero-row"])
def test_triangle_json_matches_json_dumps(capsys, shape):
    code, out, _ = run(capsys, "triangle", "--shape", shape, "--format", "json")
    assert code == EXIT_OK
    rows = triangle.iter_row_values(parse_shape(shape))
    expected = json.dumps([[str(c) for c in row] for row in rows], separators=(",", ":"))
    assert out == expected + "\n"


def test_sequence_genocchi(capsys):
    code, out, _ = run(capsys, "sequence", "genocchi2", "--count", "5")
    assert code == EXIT_OK
    assert out.splitlines() == ["1\t1", "2\t2", "3\t8", "4\t56", "5\t608"]


def test_sequence_bfile(capsys):
    code, out, _ = run(
        capsys, "sequence", "beta-staircase", "--count", "3", "--format", "bfile"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["1 1", "2 2", "3 8"]


def test_sequence_beta_staircase_steplength(capsys):
    code, out, _ = run(capsys, "sequence", "beta-staircase", "--count", "12", "--steplength", "2")
    assert code == EXIT_OK
    assert out.splitlines() == [
        f"{r}\t{beta_triangle(staircase(r, 2))}" for r in range(1, 13)
    ]


def test_sequence_legendre_stirling(capsys):
    code, out, _ = run(capsys, "sequence", "legendre-stirling", "--count", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["1\t1\t1\t1", "2\t2\t1\t2", "3\t2\t2\t1"]


@pytest.mark.parametrize(
    "argv",
    [
        ("frob",),
        ("beta", "--shape", "1", "--method", "foo"),
        ("sequence", "genocchi2", "--count", "x"),
        ("triangle",),
        ("sequence", "legendre-stirling", "--rows", "2"),
        ("sequence", "genocchi2", "--count", "3", "--steplength", "5"),
        ("sequence", "legendre-stirling", "--count", "3", "--steplength", "1"),
        ("sequence", "beta-staircase", "--count", "3", "--steplength", "0"),
        ("sequence", "beta-staircase", "--count", "3", "--steplength", "-2"),
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", [ValueError("bad state"), sequences.NonIntegerResult("1/2")])
def test_internal_fault_is_not_an_input_error(capsys, monkeypatch, fault):
    def broken(shape):
        raise fault

    monkeypatch.setattr(recursion, "beta_row_recursion", broken)
    code, out, err = run(capsys, "beta", "--shape", "3,2,1", "--method", "row")
    assert code == EXIT_INTERNAL and out == ""
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


def test_sequence_bad_count(capsys):
    code, _, _ = run(capsys, "sequence", "genocchi2", "--count", "0")
    assert code == EXIT_INPUT


def test_complex_shape(capsys):
    code, out, _ = run(capsys, "complex", "--shape", "2,1")
    assert code == EXIT_OK
    assert json.loads(out) == ["1", "4", "9", "12", "8"]


def test_complex_cap(capsys):
    code, _, _ = run(capsys, "complex", "--shape", "9,1")
    assert code == EXIT_CAP


@pytest.mark.parametrize(
    "argv",
    [["complex"], ["beta", "--method", "edge"], ["beta", "--method", "rank"],
     ["beta", "--method", "xi"], ["bench"]],
)
def test_vertex_cap_checked_before_the_graph_is_built(capsys, monkeypatch, argv):
    def unbuildable(shape):
        raise AssertionError(f"built the graph of {shape}")

    monkeypatch.setattr(graphs, "ferrers_graph", unbuildable)
    if argv == ["bench"]:
        # 13 rows of one cell and its transpose: 14 vertices each, above 12
        code, out, err = run(capsys, "bench", "--shape", ",".join(["1"] * 13))
        assert code == EXIT_OK and err == ""
        assert [line.split("\t")[-1] for line in out.splitlines()[1:]] == ["INFEASIBLE"] * 2
        return
    # one row of length 10**50: its Ferrers graph would have 10**50 + 1 vertices
    code, out, err = run(capsys, *argv, "--shape", str(10**50))
    assert code == EXIT_CAP and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cap exceeded:")


@pytest.mark.parametrize(
    ("method", "cap", "name"),
    [("edge", 12, "edge-recursion"), ("xi", 12, "edge-recursion"), ("rank", 8, "rank-census")],
)
def test_each_graph_oracle_obeys_one_vertex_cap(capsys, tmp_path, method, cap, name):
    # a perfect matching on `cap` vertices has beta 1; one more, isolated, vertex makes it 0
    def matching(vertices):
        path = tmp_path / f"matching{vertices}.txt"
        edges = "".join(f"{u} {u + 1}\n" for u in range(0, cap, 2))
        path.write_text(f"{vertices} {cap // 2}\n{edges}")
        return str(path)

    at_cap, above = matching(cap), matching(cap + 1)
    assert run(capsys, "beta", "--graph", at_cap, "--method", method) == (EXIT_OK, "1\n", "")
    assert run(capsys, "beta", "--graph", above, "--method", method) == (
        EXIT_CAP, "", f"cap exceeded: {cap + 1} vertices exceeds the {name} cap {cap}\n"
    )
    raised = ("--cap-vertices", str(cap + 1))
    assert run(capsys, "beta", "--graph", above, "--method", method, *raised) == (
        EXIT_OK, "0\n", ""
    )


@pytest.mark.parametrize(
    ("method", "vertices", "source"),
    [("edge", 1000, "--shape"), ("xi", 520, "--shape"), ("xi", 500, "--graph")],
    ids=["edge-1000", "xi-520", "xi-500-path"],
)
def test_graph_oracles_answer_past_the_interpreter_depth(
    capsys, tmp_path, method, vertices, source
):
    # each oracle nests one level per vertex, past the interpreter's default
    # depth; a shape is one row of 2 over rows of 1, whose beta is 2 by the
    # triangle, and a path file is checked against the edge recursion (a memo
    # of xi term dicts would need gigabytes on it)
    limit = sys.getrecursionlimit()
    raised = ("--cap-vertices", str(vertices))
    if source == "--shape":
        text = ",".join(["2"] + ["1"] * (vertices - 3))
        expected = run(capsys, "beta", "--shape", text)
        assert expected == (EXIT_OK, "2\n", "")
    else:
        edges = "".join(f"{v} {v + 1}\n" for v in range(vertices - 1))
        path = tmp_path / "path.txt"
        path.write_text(f"{vertices} {vertices - 1}\n{edges}")
        text = str(path)
        expected = run(capsys, "beta", "--graph", text, "--method", "edge", *raised)
        assert expected[0] == EXIT_OK and expected[1].strip()
    assert run(capsys, "beta", source, text, "--method", method, *raised) == expected
    assert sys.getrecursionlimit() == limit


VERIFY_CHECKS = [
    "beta-methods-agree",
    "beta-zero-iff-zero-row",
    "triangle-structure",
    "transpose-invariance",
    "cost-model",
    "staircase-genocchi",
    "legendre-stirling-triangle",
    "genocchi-ls-identity",
    "complete-bipartite",
    "staircase-column-gf",
]


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--cells", "6")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [line.split()[1] for line in lines] == VERIFY_CHECKS
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_fails_on_wrong_row_recursion(capsys, monkeypatch):
    right = recursion.beta_row_recursion
    monkeypatch.setattr(recursion, "beta_row_recursion", lambda shape: right(shape) + 1)
    code, out, _ = run(capsys, "verify", "--cells", "3")
    assert code == EXIT_VERIFY
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL beta-methods-agree (row disagrees on ")


def test_verify_fails_on_wrong_rank_census(capsys, monkeypatch):
    right = boolcomplex.beta_via_rank
    monkeypatch.setattr(boolcomplex, "beta_via_rank", lambda g: right(g) + 1)
    code, out, _ = run(capsys, "verify", "--cells", "3")
    assert code == EXIT_VERIFY
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL beta-methods-agree (rank disagrees on ")


@pytest.mark.parametrize(
    "route, wrong, check",
    [
        ("predicted_cost", lambda v: v + 1, "cost-model (counterexample 0)"),
        ("predicted_transpose_cost", lambda v: v + 1, "cost-model (counterexample 1)"),
        # a kernel that adds a column: every row sum and beta stay right
        ("next_values", lambda v: v + (0,), "triangle-structure (row 2 of 1,0 has 4 entries)"),
    ],
    ids=["predicted_cost", "predicted_transpose_cost", "next_values"],
)
def test_verify_fails_on_wrong_cost_model(capsys, monkeypatch, route, wrong, check):
    right = getattr(triangle, route)
    monkeypatch.setattr(triangle, route, lambda *args: wrong(right(*args)))
    code, out, _ = run(capsys, "verify", "--cells", "3")
    assert code == EXIT_VERIFY
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [f"FAIL {check}"]


def test_verify_fails_on_wrong_transposed_beta(capsys, monkeypatch):
    # wrong only on the costlier orientation, which beta_triangle never runs:
    # the transpose check must run both orientations as given to see it
    right = triangle.evaluate

    def wrong_when_costlier(shape):
        costlier = triangle.predicted_cost(shape) > triangle.predicted_transpose_cost(shape)
        return right(shape) + costlier

    monkeypatch.setattr(triangle, "evaluate", wrong_when_costlier)
    code, out, _ = run(capsys, "verify", "--cells", "3")
    assert code == EXIT_VERIFY
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL transpose-invariance (counterexample 1,1)"]


@pytest.mark.parametrize(
    "route, wrong, check",
    [
        ("beta_staircase_closed", lambda v: v + 1, "staircase-genocchi (heights 1..8)"),
        ("legendre_stirling", lambda v: v + 1, "legendre-stirling-triangle (i <= 8)"),
        ("genocchi_ls_identity", lambda v: (v[0], v[1] + 1), "genocchi-ls-identity (r <= 10)"),
        ("beta_complete_bipartite", lambda v: v + 1, "complete-bipartite (r, k <= 5)"),
        ("chat_gf_check", lambda v: (v[0], v[1] + [0]), "staircase-column-gf (j <= 3, d <= 2)"),
    ],
)
def test_verify_fails_on_each_broken_identity(capsys, monkeypatch, route, wrong, check):
    right = getattr(sequences, route)
    monkeypatch.setattr(sequences, route, lambda *args: wrong(right(*args)))
    code, out, _ = run(capsys, "verify", "--cells", "3")
    assert code == EXIT_VERIFY
    assert f"FAIL {check}" in out.splitlines()


def test_verify_reports_skips_above_rank_cap(capsys):
    code, out, _ = run(capsys, "verify", "--cells", "8")
    assert code == EXIT_OK
    assert any(line.startswith("SKIP beta-methods-capped") for line in out.splitlines())


def test_verify_cells_cap(capsys):
    code, out, err = run(capsys, "verify", "--cells", "100")
    assert code == EXIT_CAP and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cap exceeded:")


def test_bench_report(capsys):
    code, out, _ = run(capsys, "bench", "--shape", "5", "--shape", "2,1", "--shape", "4,0")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split("\t") == [
        "shape",
        "cells",
        "rows",
        "orientation",
        "predicted",
        "t_triangle",
        "t_edge",
    ]
    data = [line.split("\t") for line in lines[1:]]
    assert all(len(row) == 7 for row in data)
    # a single row costs nothing and is reported in both orientations;
    # (2,1) is self-transpose; a zero-row shape only appears as given
    assert data[0][:5] == ["5", "5", "1", "given", "0"]
    assert data[1][:5] == ["1,1,1,1,1", "5", "5", "transposed", "36"]
    assert [row[3] for row in data] == ["given", "transposed", "given", "given"]
    assert data[2][:5] == ["2,1", "3", "2", "given", "12"]
    assert data[3][0] == "4,0"
    # deterministic columns do not depend on the timing columns
    code2, out2, _ = run(capsys, "bench", "--shape", "5", "--shape", "2,1", "--shape", "4,0")
    strip = lambda text: [line.split("\t")[:5] for line in text.splitlines()]
    assert strip(out) == strip(out2)


def test_bench_staircase_cost_closed_form(capsys):
    from ferrersbool import staircase

    text = str(staircase(100, 1))
    code, out, _ = run(capsys, "bench", "--shape", text)
    assert code == EXIT_OK
    row = out.splitlines()[1].split("\t")
    assert row[4] == "20592"  # 2 * sum_{i=2..100} (i+1) * 2


def test_bench_streams_each_orientation_once(capsys, monkeypatch):
    # one triangle stream per orientation, the timed run
    streamed = []
    right = triangle.iter_row_values

    def recording(shape):
        streamed.append(str(shape))
        yield from right(shape)

    monkeypatch.setattr(triangle, "iter_row_values", recording)
    code, out, _ = run(capsys, "bench", "--shape", "3,1")
    assert code == EXIT_OK and len(out.splitlines()) == 3
    assert streamed == ["3,1", "2,1,1"]


def test_bench_random_and_infeasible(capsys):
    code, out, _ = run(
        capsys, "bench", "--count", "1", "--cells", "200", "--seed", "11"
    )
    assert code == EXIT_OK
    assert "INFEASIBLE" in out


def test_bench_needs_input(capsys):
    code, _, _ = run(capsys, "bench")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("count", ["-1", "0"])
def test_bench_bad_count(capsys, count):
    code, out, err = run(capsys, "bench", "--count", count, "--cells", "5")
    assert code == EXIT_INPUT and out == ""
    assert err == "input error: --count must be >= 1\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--count", "2", "--cells", "0"], "--cells must be >= 1"),
        (["--count", "2", "--cells", "-3"], "--cells must be >= 1"),
        (["--count", "2"], "--count needs --cells for random shapes"),
        (["--shape", "5", "--cells", "3"], "--cells needs --count for random shapes"),
    ],
    ids=["0", "-3", "missing", "without-count"],
)
def test_bench_bad_cells(capsys, argv, message):
    code, out, err = run(capsys, "bench", *argv)
    assert code == EXIT_INPUT and out == ""
    assert err == f"input error: {message}\n"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ferrersbool", "beta", "--shape", "3,2,1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK and done.stdout == "8\n"
