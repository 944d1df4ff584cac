import json
import os
import subprocess
import sys

import pytest

import finspace
import finspace.cli as cli_module
import finspace.invariants as invariants_module
from finspace.cli import main
from finspace.circles import classify_homotopic, degree, parse_circle_map, recognize_circle
from finspace.homotopy import hom_components
from finspace.errors import InvalidParameter
from finspace.invariants import Cover, TorusChecker, cat, format_cover, parse_cover, tc
from finspace.space import DownSet, khalimsky_circle, read_space
from finspace.witness import build_U, build_V
from reference import circle_map_from_order_map, serialize_circle_map


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tc_circle_3(capsys):
    code, out, _ = run(capsys, "tc", "--circle", "3")
    assert code == 0
    assert out.splitlines()[0] == "2"


def test_certificate_that_disagrees_with_the_search_is_an_internal_error(
    capsys, monkeypatch
):
    # the search decides by status alone; the printed pieces are decided
    # again, and a disagreement is reported, never printed as a cover
    def uncertified(self, mask, budget):
        return invariants_module.HomotopyVerdict("unknown", reason="stubbed")

    monkeypatch.setattr(TorusChecker, "is_section_categorical", uncertified)
    code, out, err = run(capsys, "tc", "--circle", "3")
    assert code == cli_module.EXIT_INTERNAL and out == ""
    assert err.startswith("internal error: cover piece ")
    assert "is unknown on certification (stubbed)" in err


def test_tc_json_schema(capsys):
    code, out, _ = run(capsys, "tc", "--circle", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["value"] == 3
    assert len(doc["cover"]) == 4
    assert all(c["status"] == "homotopic" for c in doc["certificates"])


def test_tc_json_names_the_lift_certificates(capsys):
    # every piece of the tc(S1_3) cover has no winding, so its lift decides it
    code, out, _ = run(capsys, "tc", "--circle", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificates"] == [
        {
            "status": "homotopic",
            "reason": "projections lift to the digital line; "
            "fence of 9 maps through constants",
        }
    ] * 3


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


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_classify_prints_the_degree_rule_on_every_pair(capsys, m, n):
    # classify decides through homotopic; its line is the one the degree
    # rule (classify_homotopic) gives, on every pair of continuous maps
    X, Y = khalimsky_circle(m).space, khalimsky_circle(n).space
    rec_x, rec_y = recognize_circle(X), recognize_circle(Y)
    maps = [
        circle_map_from_order_map(list(t), rec_x, rec_y)
        for comp in hom_components(X, Y)
        for t in comp
    ]
    specs = [serialize_circle_map(f) for f in maps]
    want = []
    for f in maps:
        for g in maps:
            same = classify_homotopic(f, g)
            want.append(
                f"{'homotopic' if same else 'not homotopic'} "
                f"(degrees {degree(f)}, {degree(g)}, bound {m}/{n})"
            )
    codes = {main(["classify", f, g]) for f in specs for g in specs}
    assert codes == {0}
    assert capsys.readouterr().out.splitlines() == want


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
        # --budget only on the commands that search
        ["space", "--circle", "2", "--budget", "5"],
        ["core", "--circle", "2", "--budget", "5"],
        ["degree", "circlemap 2 2 0 1 2 3", "--budget", "5"],
        ["classify", "circlemap 2 2 0 1 2 3", "circlemap 2 2 0 1 2 3",
         "--budget", "5"],
        ["colorings", "--n", "3", "--colors", "2", "--budget", "5"],
        ["export-complex", "--cycle", "4", "--budget", "5"],
        # homotopic is one procedure: it has no --strategy at all
        ["homotopic", "circlemap 2 2 0 1 2 3", "circlemap 2 2 0 1 2 3",
         "--strategy", "auto"],
    ],
)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 1


def test_space_sources_exclude_each_other(capsys, tmp_path):
    path = tmp_path / "x.space"
    path.write_text("space X 1\n")
    code, out, err = run(capsys, "space", "--circle", "2", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "not allowed with" in err
    code, _, _ = run(capsys, "cat", "--circle", "2", "--interval", "0", "2")
    assert code == 1


def test_cat_refuses_a_space_with_no_points(capsys, tmp_path):
    # no cover bounds the category of the empty space: exact search said
    # "cat in [0, ?]" at a limit never given, and witness mode [0, -1]
    X = read_space("space E 0\n")
    assert X.n == 0
    for call in (
        lambda: cat(X),
        lambda: cat(X, mode="witness", witness=Cover(X, [])),
    ):
        with pytest.raises(InvalidParameter, match="at least one point"):
            call()
    path = tmp_path / "e.space"
    path.write_text("space E 0\n")
    code, out, err = run(capsys, "cat", "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "at least one point" in err


def write_cover(tmp_path, res):
    path = tmp_path / "w.cover"
    path.write_text(format_cover(res.cover))
    return str(path)


def test_via_colorings_rejects_limit(capsys):
    code, out, err = run(capsys, "tc", "--circle", "2", "--via-colorings", "--limit", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--limit" in err
    code, _, err = run(capsys, "tc", "--circle", "2", "--via-colorings", "--force")
    assert code == 1 and "--force" in err


def test_tc_witness_rejects_via_colorings_and_search_flags(capsys, tmp_path):
    path = write_cover(tmp_path, tc(khalimsky_circle(3)))
    code, out, err = run(
        capsys, "tc", "--circle", "3", "--witness", path,
        "--via-colorings", "--limit", "1", "--force",
    )
    assert code == 1 and out == "" and err.startswith("error:")
    code, _, err = run(capsys, "tc", "--circle", "3", "--witness", path, "--via-colorings")
    assert code == 1 and "--via-colorings" in err
    code, _, err = run(capsys, "tc", "--circle", "3", "--witness", path, "--limit", "1")
    assert code == 1 and "--limit" in err
    code, out, _ = run(capsys, "tc", "--circle", "3", "--witness", path)
    assert code == 2 and out.splitlines()[0] == "tc in [1, 2]"


def test_cat_witness_rejects_search_flags(capsys, tmp_path):
    path = write_cover(tmp_path, cat(TorusChecker(khalimsky_circle(3)).P))
    argv = ["cat", "--circle", "3", "--square", "--witness", path]
    code, out, err = run(capsys, *argv, "--limit", "0", "--force")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--limit and --force" in err
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out.splitlines()[0] == "cat in [0, 2]"


def test_export_complex_cycle(capsys):
    code, out, _ = run(capsys, "export-complex", "--cycle", "4")
    assert code == 0
    assert out.splitlines()[0] == "asc 4 4"


@pytest.mark.parametrize(
    "argv,named",
    [
        (["export-complex", "--cycle", "4", "--circle", "3"], "not allowed with"),
        (["export-complex", "--cycle", "4", "--square"], "--square"),
        (["space", "--circle", "2", "--dot", "--format", "json"], "--dot"),
    ],
    ids=["cycle-with-circle", "cycle-with-square", "dot-with-json"],
)
def test_a_flag_that_would_do_nothing_is_a_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize(
    "command,sources",
    [
        ("export-complex", "--circle, --interval, --file, --cycle"),
        ("core", "--circle, --interval, --file"),
    ],
    ids=["export-complex", "core"],
)
def test_a_missing_source_names_every_source_of_the_subcommand(capsys, command, sources):
    code, out, err = run(capsys, command)
    assert code == 1 and out == ""
    assert err.strip() == f"error: give one of {sources}"


def test_export_complex_to_file(capsys, tmp_path):
    path = tmp_path / "k.asc"
    code, out, _ = run(
        capsys, "export-complex", "--circle", "3", "--out", str(path)
    )
    assert code == 0
    assert path.read_text().startswith("asc 6 6")


def test_export_complex_of_a_long_chain(capsys, tmp_path):
    # one facet of dimension n - 1, its chain walked without recursion
    n = 1200
    path = tmp_path / "chain.space"
    covers = "".join(f"cover {i} {i + 1}\n" for i in range(n - 1))
    path.write_text(f"space chain {n}\n" + covers)
    code, out, err = run(capsys, "export-complex", "--file", str(path))
    assert code == 0 and err == ""
    assert out.splitlines() == [f"asc {n} 1", " ".join(map(str, range(n)))]


def test_budget_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("FINSPACE_BUDGET", "nope")
    code, _, err = run(
        capsys, "homotopic", "circlemap 2 2 0 1 2 3", "circlemap 2 2 0 1 2 3"
    )
    assert code == 1


def test_bad_budget_flag(capsys):
    code, _, err = run(
        capsys, "homotopic", "circlemap 2 2 0 1 2 3", "circlemap 2 2 0 1 2 3",
        "--budget", "-5",
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


def test_square_works_with_every_source(capsys):
    code, out, _ = run(capsys, "space", "--interval", "0", "2", "--square", "--format", "json")
    assert code == 0 and json.loads(out)["points"] == 9


def test_cat_of_a_saved_circle_squared_takes_the_torus_path(capsys, tmp_path):
    path = tmp_path / "c3.space"
    assert run(capsys, "space", "--circle", "3", "--out", str(path))[0] == 0
    want = run(capsys, "cat", "--circle", "3", "--square", "--format", "json")
    got = run(capsys, "cat", "--file", str(path), "--square", "--format", "json")
    assert want[0] == 0 and got == want


@pytest.mark.parametrize("command", ["cat", "tc"])
def test_witness_results_print_one_certificate_per_piece(capsys, tmp_path, command):
    # in witness mode the certificates are the verdicts that the notes name
    space, cover = tmp_path / "c3.space", tmp_path / "c.cover"
    assert run(capsys, "space", "--circle", "3", "--out", str(space))[0] == 0
    if command == "cat":
        X = read_space(space.read_text())
        cover.write_text(format_cover(cat(X).cover))
        argv = ["cat", "--file", str(space)]
    else:
        cover.write_text(format_cover(tc(khalimsky_circle(3)).cover))
        argv = ["tc", "--circle", "3"]
    # the cover bounds the value from above; it meets no lower bound here
    code, out, _ = run(capsys, *argv, "--witness", str(cover), "--format", "json")
    got = json.loads(out)
    assert code == 2 and got["upper"] == len(got["cover"]) - 1
    certificates = got["certificates"]
    assert len(certificates) == len(got["cover"]) > 1
    assert got["notes"] == [
        f"piece {i}: {c['status']} ({c['reason']})" for i, c in enumerate(certificates)
    ]


def test_tc_witness_builds_one_product(capsys, monkeypatch, tmp_path):
    U, V = build_U(5), build_V(5)
    path = tmp_path / "w5.cover"
    path.write_text(
        format_cover(Cover(U.space, [U, DownSet(U.space, V.members)]))
    )
    calls = []
    real = invariants_module.product

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(invariants_module, "product", counted)
    monkeypatch.setattr(cli_module, "product", counted)
    # as in a fresh process: build_U above left S1_5 x S1_5 in the cache
    invariants_module.torus.cache_clear()
    code, out, _ = run(capsys, "tc", "--circle", "5", "--witness", str(path))
    assert code == 0 and out.splitlines()[0] == "1"
    assert len(calls) == 1


def test_cat_of_a_circle_squared_builds_one_product(capsys, monkeypatch):
    # --square on a circle loads the shared torus, which cat then finds
    calls = []
    real = invariants_module.product

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(invariants_module, "product", counted)
    monkeypatch.setattr(cli_module, "product", counted)
    invariants_module.torus.cache_clear()
    code, out, _ = run(capsys, "cat", "--circle", "3", "--square")
    assert code == 0 and out.splitlines()[0] == "cat = 2"
    assert len(calls) == 1


def run_process(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a
    traceback on stderr."""
    src = os.path.dirname(os.path.dirname(finspace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "finspace.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def test_a_usage_error_leaves_the_parser_as_it_was(capsys):
    # main reads every command line with one parser, built once per
    # process; one that it refuses mid-parse changes nothing for the next
    parser = cli_module.build_parser()
    argvs = (["reproduce", "--format", "xml"], ["reproduce"])
    fresh = [run_process(*argv) for argv in argvs]
    assert [run(capsys, *argv) for argv in argvs] == [
        (p.returncode, p.stdout, p.stderr) for p in fresh
    ]
    assert fresh[0].returncode == 1 and fresh[1].returncode == 0
    assert cli_module.build_parser() is parser


@pytest.mark.parametrize(
    "argv,text",
    [
        (["tc", "--circle", "3", "--witness", "{path}"], ""),
        (["tc", "--circle", "3", "--witness", "{path}"], "cover X 1\n0 1 x\n"),
        (["degree", "circlemap 2"], None),
        (["space", "--file", "{path}"], "cover X 1\n0 1 2 3 4 5\n"),
        (["space", "--file", "{path}"], "space X 2\ncover 0 1\ncover 1 0\n"),
        (["space", "--file", "{path}"], "space X 2\ncover 0 0\n"),
        (["cat", "--circle", "3", "--limit", "-1"], None),
        (["tc", "--circle", "3", "--limit", "-1"], None),
    ],
    ids=["empty-cover", "cover-token", "short-circlemap", "cover-as-space",
         "cyclic-covers", "reflexive-cover", "cat-negative-limit", "tc-negative-limit"],
)
def test_malformed_input_is_a_usage_error(tmp_path, argv, text):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    got = run_process(*(a.format(path=path) for a in argv))
    assert got.returncode == 1
    assert got.stderr.startswith("error:")
    assert "Traceback" not in got.stderr


@pytest.mark.parametrize(
    "text",
    [
        "", "space X\n", "space X 2\npoint\n", "space X 2\ncover 0\n", "space X two\n",
        "space X 3\npoint 7 z\n", "space X 3\npoint -1 z\n", "space X -2\n",
    ],
)
def test_read_space_rejects_malformed_text(text):
    with pytest.raises(InvalidParameter):
        read_space(text)


@pytest.mark.parametrize(
    "text",
    [
        "space X 2\ncover 0 1 7\n",
        "space X 2\npoint 0 a b c\n",
        "space X 2\nspace Y 3\n",
        "space X 2 3\n",
        "space X 2\npoint 0 a\npoint 0 b\n",
    ],
    ids=["cover-extra-token", "point-extra-tokens", "second-header", "header-extra-token",
         "point-twice"],
)
def test_read_space_reads_every_token_once(text):
    with pytest.raises(InvalidParameter):
        read_space(text)


@pytest.mark.parametrize(
    "text",
    [
        "", "cover X\n", "cover X 1\n0 -1\n", "cover X 1\n0 1 2 3 99\n",
        # the header's count against the piece lines, both ways
        "cover X 3\n0 1 2 3\n", "cover X 1\n0 1 2 3\n1\n", "cover X -1\n",
    ],
)
def test_parse_cover_rejects_malformed_text(text):
    with pytest.raises(InvalidParameter):
        parse_cover(khalimsky_circle(2).space, text)


@pytest.mark.parametrize("text", ["", "circlemap", "circlemap 2 x", "circlemap 2 2 0 1 2 z"])
def test_parse_circle_map_rejects_malformed_text(text):
    with pytest.raises(InvalidParameter):
        parse_circle_map(text)
