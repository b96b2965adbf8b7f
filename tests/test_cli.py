import json

import pytest

from ferrersbool import rectangle
from ferrersbool.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, main


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


def test_beta_needs_one_source(capsys):
    code, _, _ = run(capsys, "beta")
    assert code == EXIT_INPUT
    code, _, _ = run(capsys, "beta", "--shape", "1", "--graph", "whatever")
    assert code == EXIT_INPUT


def test_beta_cap_exceeded(capsys):
    code, _, err = run(
        capsys, "beta", "--shape", "3,2,1", "--method", "rank", "--cap-vertices", "2"
    )
    assert code == EXIT_CAP and "cap exceeded" in err


def test_beta_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("FB_CAP_VERTICES", "2")
    code, _, _ = run(capsys, "beta", "--shape", "3,2,1", "--method", "rank")
    assert code == EXIT_CAP


def test_beta_graph_file(capsys, tmp_path):
    path = tmp_path / "k22.txt"
    path.write_text("4 4\n0 2\n0 3\n1 2\n1 3\n")
    code, out, _ = run(capsys, "beta", "--graph", str(path))
    assert code == EXIT_OK and out.strip() == "5"
    code, out, _ = run(capsys, "beta", "--graph", str(path), "--method", "rank")
    assert code == EXIT_OK and out.strip() == "5"
    code, _, _ = run(capsys, "beta", "--graph", str(path), "--method", "triangle")
    assert code == EXIT_INPUT


def test_beta_graph_missing_file(capsys):
    code, _, err = run(capsys, "beta", "--graph", "/nonexistent/file.txt")
    assert code == EXIT_INPUT


def test_beta_graph_isolated_vertex(capsys, tmp_path):
    path = tmp_path / "iso.txt"
    path.write_text("3 1\n0 1\n")
    code, out, _ = run(capsys, "beta", "--graph", str(path))
    assert code == EXIT_OK and out.strip() == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ("beta", "--method", "edge"),
        ("beta", "--method", "rank"),
        ("beta", "--method", "xi"),
        ("complex",),
    ],
)
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


def test_sequence_legendre_stirling(capsys):
    code, out, _ = run(capsys, "sequence", "legendre-stirling", "--rows", "2")
    assert code == EXIT_OK
    assert out.splitlines() == ["1\t1\t1\t1", "2\t2\t1\t2", "3\t2\t2\t1"]


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


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--cells", "6")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert any(line.startswith("PASS beta-methods-agree") for line in lines)
    assert all(not line.startswith("FAIL") for line in lines)


def test_verify_reports_skips_above_rank_cap(capsys):
    code, out, _ = run(capsys, "verify", "--cells", "8")
    assert code == EXIT_OK
    assert any(line.startswith("SKIP beta-methods-capped") for line in out.splitlines())


def test_verify_cells_cap(capsys):
    code, _, _ = run(capsys, "verify", "--cells", "100")
    assert code == EXIT_CAP


def test_bench_report(capsys):
    code, out, _ = run(capsys, "bench", "--shape", "5", "--shape", "2,1", "--shape", "4,0")
    assert code == EXIT_OK
    lines = out.splitlines()
    header = lines[0].split("\t")
    assert header[:7] == [
        "shape",
        "cells",
        "rows",
        "orientation",
        "predicted",
        "multiplications",
        "check",
    ]
    data = [line.split("\t") for line in lines[1:]]
    # a single row costs nothing and is reported in both orientations;
    # (2,1) is self-transpose; a zero-row shape only appears as given
    assert data[0][:7] == ["5", "5", "1", "given", "0", "0", "ok"]
    assert data[1][:7] == ["1,1,1,1,1", "5", "5", "transposed", "36", "36", "ok"]
    assert [row[3] for row in data] == ["given", "transposed", "given", "given"]
    assert data[2][:7] == ["2,1", "3", "2", "given", "12", "12", "ok"]
    assert data[3][0] == "4,0"
    # deterministic columns do not depend on the timing columns
    code2, out2, _ = run(capsys, "bench", "--shape", "5", "--shape", "2,1", "--shape", "4,0")
    strip = lambda text: [line.split("\t")[:7] for line in text.splitlines()]
    assert strip(out) == strip(out2)


def test_bench_staircase_cost_closed_form(capsys):
    from ferrersbool import staircase

    text = str(staircase(100, 1))
    code, out, _ = run(capsys, "bench", "--shape", text)
    assert code == EXIT_OK
    row = out.splitlines()[1].split("\t")
    assert row[4] == row[5] == "20592"  # 2 * sum_{i=2..100} (i+1) * 2


def test_bench_random_and_infeasible(capsys):
    code, out, _ = run(
        capsys, "bench", "--count", "1", "--cells", "200", "--seed", "11"
    )
    assert code == EXIT_OK
    assert "INFEASIBLE" in out


def test_bench_needs_input(capsys):
    code, _, _ = run(capsys, "bench")
    assert code == EXIT_INPUT
