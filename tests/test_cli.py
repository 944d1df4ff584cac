import json

import pytest

from finspace.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tc_circle_3(capsys):
    code, out, _ = run(capsys, "tc", "--circle", "3")
    assert code == 0
    assert out.splitlines()[0] == "2"


def test_tc_json_schema(capsys):
    code, out, _ = run(capsys, "tc", "--circle", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["value"] == 3
    assert len(doc["cover"]) == 4
    assert all(c["status"] == "homotopic" for c in doc["certificates"])


def test_cat_square(capsys):
    code, out, _ = run(capsys, "cat", "--circle", "2", "--square")
    assert code == 0
    assert "cat = 3" in out


def test_space_requires_source(capsys):
    code, _, err = run(capsys, "space")
    assert code == 1
    assert "circle" in err


def test_space_dot(capsys):
    code, out, _ = run(capsys, "space", "--circle", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_core_square(capsys):
    code, out, _ = run(capsys, "core", "--circle", "3", "--square")
    assert code == 0
    assert "core: 36 of 36" in out


def test_degree_and_classify(capsys):
    code, out, _ = run(capsys, "degree", "circlemap 4 2 0 1 2 3 0 1 2 3")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        capsys,
        "classify",
        "circlemap 2 2 0 1 2 3",
        "circlemap 2 2 0 0 0 0",
    )
    assert code == 0 and "not homotopic" in out


def test_homotopic_mismatch_is_usage_error(capsys):
    code, _, err = run(
        capsys,
        "homotopic",
        "circlemap 2 2 0 1 2 3",
        "circlemap 3 2 0 0 0 0 0 0",
    )
    assert code == 1


def test_homotopic_fence(capsys):
    code, out, _ = run(
        capsys,
        "homotopic",
        "circlemap 2 2 0 0 0 0",
        "circlemap 2 2 2 2 2 2",
    )
    assert code == 0
    assert "homotopic" in out


def test_colorings(capsys):
    code, out, _ = run(capsys, "colorings", "--n", "4", "--colors", "2")
    assert code == 0
    assert out.splitlines()[0] == "2 simple colorings"


def test_verify_witness(capsys):
    code, out, _ = run(capsys, "verify-witness", "--k", "5")
    assert code == 0
    assert "[ok]" in out and "FAIL" not in out


def test_verify_witness_json(capsys):
    code, out, _ = run(capsys, "verify-witness", "--k", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["n_C"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["tc", "--circle", "3", "--exact"],
        ["cat", "--circle", "2", "--exact"],
        ["degree", "circlemap 2 2 0 1 2 3", "--threads", "2"],
        ["verify-witness", "--k", "5", "--report", "json"],
        ["homotopic", "circlemap 2 2 0 1 2 3", "circlemap 2 2 0 1 2 3",
         "--strategy", "core-degree"],
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 1


def test_export_complex_cycle(capsys):
    code, out, _ = run(capsys, "export-complex", "--cycle", "4")
    assert code == 0
    assert out.splitlines()[0] == "asc 4 4"


def test_export_complex_to_file(capsys, tmp_path):
    path = tmp_path / "k.asc"
    code, out, _ = run(
        capsys, "export-complex", "--circle", "3", "--out", str(path)
    )
    assert code == 0
    assert path.read_text().startswith("asc 6 6")


def test_budget_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("FINSPACE_BUDGET", "nope")
    code, _, err = run(capsys, "degree", "circlemap 2 2 0 1 2 3")
    assert code == 1


def test_bad_budget_flag(capsys):
    code, _, err = run(
        capsys, "degree", "circlemap 2 2 0 1 2 3", "--budget", "-5"
    )
    assert code == 1


def test_space_file_round_trip(capsys, tmp_path):
    path = tmp_path / "s.space"
    code, _, _ = run(
        capsys, "space", "--circle", "2", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run(capsys, "space", "--file", str(path))
    assert code == 0
    assert "space on 4 points" in out
