import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from threebraid import cli
from threebraid.embed import PipelineReport


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_u1_witness(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "u1", "s1^-4 s2 s1^-1 s2^2",
                           "--out", str(out_path))
    assert code == 0
    assert "verdict: witness" in out
    assert "crossing: letter 2" in out
    doc = json.loads(out_path.read_text())
    assert doc["determinant"] == 23 and doc["n"] == 12 and doc["sigma"] == 2
    # JSON round-trips into the same report
    rep = PipelineReport.from_json(doc)
    assert rep.to_json() == doc


def test_u1_obstructed(capsys):
    code, out, _ = run_cli(capsys, "u1", "s1^-3 s2^2 s1^-2 s2^3")
    assert code == 0
    assert "stage: change_making" in out
    assert "verdict: obstructed" in out


def test_u1_no_change_making(capsys):
    code, out, _ = run_cli(capsys, "u1", "--no-change-making",
                           "s1^-3 s2^2 s1^-2 s2^3")
    assert code == 0
    assert out.count("witness (") == 1
    assert "not certificates" in out


def _matrix_file(tmp_path, matrix):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"goeritz": [list(r) for r in matrix]}))
    return str(path)


def test_u1_matrix_input(capsys, tmp_path, g87_matrix):
    path = _matrix_file(tmp_path, g87_matrix)
    code, out, _ = run_cli(capsys, "u1", "--matrix", path, "--sigma", "2")
    assert code == 0
    assert "stage: witness" in out
    code, _, err = run_cli(capsys, "u1", "--matrix", path)
    assert code == 2 and "--sigma" in err


def test_u1_matrix_stages(capsys, tmp_path, g1079_matrix):
    path = _matrix_file(tmp_path, g1079_matrix)
    code, out, _ = run_cli(capsys, "u1", "--matrix", path, "--sigma", "0")
    assert code == 0
    assert "stage: change_making" in out and "witness matrix" not in out
    code, out, _ = run_cli(capsys, "u1", "--matrix", path, "--sigma", "0",
                           "--no-change-making")
    assert code == 0
    assert "stage: witness" in out and out.count("witness matrix:") == 1


@pytest.mark.parametrize("matrix, sigma, first_line", [
    # sweep sides: coker Z/3 + Z/3, and a cyclic coker whose linking form
    # takes no value -2/35
    (((-5, 1, 1), (1, -2, 1), (1, 1, -2)), "0", "determinant: 9   n: 5"),
    (((-4, 1, 1), (1, -4, 1), (1, 1, -3)), "2", "determinant: 35   n: 18"),
])
def test_u1_matrix_on_linking_refuted_sides(capsys, tmp_path, matrix, sigma,
                                            first_line):
    """A side refuted by its linking form prints the stage a full search
    of it printed, in both modes."""
    path = _matrix_file(tmp_path, matrix)
    for mode in ((), ("--no-change-making",)):
        code, out, _ = run_cli(capsys, "u1", "--matrix", path,
                               "--sigma", sigma, *mode)
        assert code == 0
        assert out == f"{first_line}\nstage: search_empty\n"


def test_u1_matrix_refuses_impossible_sigma(capsys, tmp_path):
    """A knot has D = sigma + 1 (mod 4); other pairs are refused."""
    for matrix in (((-5,),), ((-1,),)):
        path = _matrix_file(tmp_path, matrix)
        code, out, err = run_cli(capsys, "u1", "--matrix", path,
                                 "--sigma", "2")
        assert code == 2 and out == "" and "sigma + 1 (mod 4)" in err
    path = _matrix_file(tmp_path, ((-2,),))     # even D: a link's form
    code, out, err = run_cli(capsys, "u1", "--matrix", path, "--sigma", "0")
    assert code == 2 and out == "" and "must be odd" in err
    path = _matrix_file(tmp_path, ((-5,),))
    code, out, _ = run_cli(capsys, "u1", "--matrix", path, "--sigma", "0")
    assert code == 0
    assert out == "determinant: 5   n: 3\nstage: search_empty\n"


def test_symmetry_matrix(capsys, tmp_path, g87_matrix, g1079_matrix):
    out_path = tmp_path / "sym.json"
    code, out, _ = run_cli(capsys, "symmetry", "--matrix",
                           _matrix_file(tmp_path, g87_matrix),
                           "--out", str(out_path))
    assert code == 0 and "compatible" in out
    doc = json.loads(out_path.read_text())
    assert doc["sides"] == {"table": False, "negated": True}
    code, out, _ = run_cli(capsys, "symmetry", "--matrix",
                           _matrix_file(tmp_path, g1079_matrix))
    assert code == 0 and "obstruction fires" in out


@pytest.mark.parametrize("command", [["u1", "--sigma", "2"], ["symmetry"],
                                     ["dtable"]])
@pytest.mark.parametrize("matrix", [
    [[-6.9, 1, 1], [1, -3, 1], [1, 1, -2]],      # int() would truncate
    [["-6", 1, 1], [1, -3, 1], [1, 1, -2]],      # int() would parse
    [[-1, True], [True, -2]],                    # bools are not entries
    5,
    [[None]],
    [[-6, 1, 1], 1, [1, 1, -2]],
])
def test_matrix_entries_must_be_integers(capsys, tmp_path, command, matrix):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"goeritz": matrix}))
    code, out, err = run_cli(capsys, *command, "--matrix", str(path))
    assert code == 2 and out == "" and "integer rows" in err


@pytest.mark.parametrize("command", [["u1", "--sigma", "2"], ["symmetry"],
                                     ["dtable"], ["embed", "--target-rank", "2"]])
def test_empty_matrix_is_refused(capsys, tmp_path, command):
    """A matrix with no rows is refused before any output."""
    path = _matrix_file(tmp_path, ())
    code, out, err = run_cli(capsys, *command, "--matrix", path)
    assert code == 2 and out == "" and "no rows" in err


def test_over_nested_matrix_is_refused(capsys, tmp_path):
    """JSON nested past the parser's recursion limit is malformed input."""
    path = tmp_path / "g.json"
    path.write_text('{"goeritz": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, "u1", "--matrix", str(path), "--sigma", "2")
    assert code == 2 and out == "" and "nests too deeply" in err


def test_unwritable_out_prints_nothing(capsys, tmp_path):
    """The --out file is written before the text, so a failed write exits 2
    with nothing on standard output."""
    code, out, _ = run_cli(capsys, "dtable", "--unknot", "3",
                           "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2 and out == ""


def test_u1_input_errors(capsys):
    code, _, err = run_cli(capsys, "u1", "s3^2")
    assert code == 2 and "generator" in err
    code, _, err = run_cli(capsys, "u1", "s1 s2")
    assert code == 2 and "alternating" in err
    code, out, err = run_cli(capsys, "u1", "s1^-1 s2^2")   # a link
    assert code == 2 and out == "" and "not a knot" in err


@pytest.mark.parametrize("argv, message", [
    (["dtable", "s1^-4 s2 s1^-1 s2^2", "--unknot", "0"], "exclude each other"),
    (["dtable", "--unknot", "0"], "odd and at least 3"),
    (["dtable", "--unknot", "5", "--matrix", "{matrix}"], "exclude each other"),
    (["u1", "s1^-4 s2 s1^-1 s2^2", "--matrix", "{matrix}", "--sigma", "2"],
     "exclude each other"),
    (["symmetry", "s1^-4 s2 s1^-1 s2^2", "--matrix", "{matrix}"],
     "exclude each other"),
    (["u1", "s1^-4 s2 s1^-1 s2^2", "--sigma", "0"], "--sigma goes with --matrix"),
])
def test_ignored_inputs_are_refused(capsys, tmp_path, g87_matrix, argv, message):
    """Every input a command would drop is refused before any output."""
    path = _matrix_file(tmp_path, g87_matrix)
    argv = [arg.format(matrix=path) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and message in err


def test_invariants(capsys):
    code, out, _ = run_cli(capsys, "invariants", "s1^-4 s2 s1^-1 s2^2")
    assert code == 0
    assert "23 = 2*12 - 1" in out and "signature: 2" in out


def test_goeritz(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "goeritz", "s1^-4 s2 s1^-1 s2^2",
                           "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["goeritz"] == [[-6, 1, 1], [1, -3, 1], [1, 1, -2]]


def test_dtable_unknot(capsys):
    code, out, _ = run_cli(capsys, "dtable", "--unknot", "9")
    assert code == 0
    lines = [l for l in out.splitlines() if ":" in l and l.startswith("  ")]
    assert len(lines) == 9
    assert "  0: 0" in out


def test_dtable_word_and_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "t.json"
    code, out, _ = run_cli(capsys, "dtable", "s1^-4 s2 s1^-1 s2^2",
                           "--out", str(out_path))
    assert code == 0
    from threebraid.forms import DTable
    doc = json.loads(out_path.read_text())
    table = DTable.from_json(doc)
    assert table.to_json() == doc
    assert table.determinant == 23


def test_symmetry(capsys):
    code, out, _ = run_cli(capsys, "symmetry", "s1^-4 s2 s1^-1 s2^2")
    assert code == 0
    assert "compatible" in out
    code, out, _ = run_cli(capsys, "symmetry", "s1^-3 s2^2 s1^-2 s2^3")
    assert code == 0
    assert "obstruction fires" in out


def test_embed_subcommand(capsys, tmp_path):
    from threebraid.forms import PRETZEL_FORM
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"goeritz": [list(r) for r in PRETZEL_FORM]}))
    code, out, _ = run_cli(capsys, "embed", "--matrix", str(path),
                           "--target-rank", "6")
    assert code == 0
    assert "2 embedding class(es)" in out


def test_embed_wide_target_rank(capsys, tmp_path):
    """A target rank far past -trace(M) pads zero columns, exit 0."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"goeritz": [[-2, 1], [1, -3]]}))
    code, out, _ = run_cli(capsys, "embed", "--matrix", str(path),
                           "--target-rank", "3000")
    assert code == 0
    assert "1 embedding class(es) into rank 3000" in out


def test_b0(capsys, monkeypatch):
    calls = []
    generate = cli.expansions.generate_balanced
    monkeypatch.setattr(cli.expansions, "generate_balanced",
                        lambda r_max: calls.append(r_max) or generate(r_max))
    code, out, _ = run_cli(capsys, "b0", "--rmax", "4", "--check")
    assert code == 0
    assert "r = 4: 5 member(s)" in out
    assert "no witness x row: True" in out
    assert calls == [4]  # the check reuses the generated layers


def test_pretzel_check(capsys):
    code, out, _ = run_cli(capsys, "pretzel-check")
    assert code == 0
    assert "confirmed" in out and "NOT confirmed" not in out


def test_enumerate_small(capsys, tmp_path):
    out_path = tmp_path / "enum.json"
    code, out, _ = run_cli(capsys, "enumerate", "--bound", "6",
                           "--out", str(out_path))
    assert code == 0
    assert "agreement: True" in out
    doc = json.loads(out_path.read_text())
    assert all(r["verdict"] in ("witness", "obstructed") for r in doc["results"])


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_enumerate_refuses_fewer_than_one_worker(capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli.multiprocessing, "Pool", no_pool)
    code, out, err = run_cli(capsys, "enumerate", "--bound", "4",
                             "--workers", workers)
    assert code == 2 and out == "" and "--workers" in err


@pytest.mark.parametrize("bound", ["1", "0", "-1"])
def test_enumerate_refuses_bound_below_two(capsys, monkeypatch, bound):
    def no_words(*args, **kwargs):
        raise AssertionError("words were enumerated")

    monkeypatch.setattr(cli.braid, "alt_words", no_words)
    code, out, err = run_cli(capsys, "enumerate", "--bound", bound)
    assert code == 2 and out == "" and "--bound" in err


def test_python_m_threebraid(capsys):
    """python -m threebraid runs the CLI, with the output of cli.run.

    Under -O too, which strips asserts: the theorem checks must be raises.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for flags, argv in (([], ["b0", "--rmax", "3"]),
                        (["-O"], ["u1", "s1^-4 s2 s1^-1 s2^2"]),
                        (["-O"], ["b0", "--rmax", "3"])):
        proc = subprocess.run([sys.executable, *flags, "-m", "threebraid", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)
        code, out, _ = run_cli(capsys, *argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out
    assert "r = 3: 2 member(s)" in out


GOLDEN_ARGV = [
    ["u1", "s1^-4 s2 s1^-1 s2^2"],
    ["u1", "s1^-3 s2^2 s1^-2 s2^3"],
    ["u1", "s1^-3 s2^2 s1^-2 s2^3", "--no-change-making"],
    ["u1", "--matrix", "g87.json", "--sigma", "2"],
    ["invariants", "s1^-4 s2 s1^-1 s2^2"],
    ["goeritz", "s1^-4 s2 s1^-1 s2^2"],
    ["enumerate", "--bound", "8"],
    ["dtable", "s1^-4 s2 s1^-1 s2^2"],
    ["dtable", "--unknot", "9"],
    ["dtable", "--matrix", "g87.json"],
    ["symmetry", "s1^-3 s2^2 s1^-2 s2^3"],
    ["symmetry", "--matrix", "g87.json"],
    ["embed", "--matrix", "pretzel.json", "--target-rank", "6"],
    ["b0", "--rmax", "5", "--check"],
    ["pretzel-check"],
]

GOLDEN_SHA256 = "fcdcb640954127473ac92caf91b37ccf675570599979848d45e27567d7947b72"


def run_golden(capsys, g87_matrix):
    """[argv, exit code, stdout, --out file] of each GOLDEN_ARGV command, run
    in the working directory after writing the matrix files they read."""
    from threebraid.forms import PRETZEL_FORM
    for name, matrix in (("g87.json", g87_matrix), ("pretzel.json", PRETZEL_FORM)):
        Path(name).write_text(json.dumps({"goeritz": [list(r) for r in matrix]}))
    record = []
    for argv in GOLDEN_ARGV:
        code, out, _ = run_cli(capsys, *argv, "--out", "out.json")
        record.append([argv, code, out, Path("out.json").read_text()])
        Path("out.json").unlink()
    return record


def test_golden_output(capsys, tmp_path, monkeypatch, g87_matrix):
    """One sha256 pins the exit code, stdout and --out file of each command."""
    monkeypatch.chdir(tmp_path)
    record = run_golden(capsys, g87_matrix)
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
