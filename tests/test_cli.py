"""Command-line entry points via main(argv)."""

import json

from cutlearn.cli import EXIT_INPUT_ERROR, EXIT_LIMIT, EXIT_OK, main
from cutlearn.fileio import print_native
from cutlearn.corpus import random_mbp_problem

OPB = "min: +1 x1 +1 x2;\n+1 x1 +1 x2 >= 1;\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_opb(tmp_path, capsys):
    path = _write(tmp_path, "a.opb", OPB)
    stats = str(tmp_path / "stats.json")
    assert main(["solve", path, "--stats-json", stats]) == EXIT_OK
    out = capsys.readouterr().out
    assert "status: optimal objective: 1" in out
    payload = json.loads(open(stats).read())
    assert payload["status"] == "optimal" and payload["objective"] == "1"


def test_solve_native_with_reduction_flag(tmp_path, capsys):
    path = _write(tmp_path, "p.txt", print_native(random_mbp_problem(52)))
    for strategy in ("clause", "coeftight", "wmir", "cmir"):
        assert main(["solve", path, "--reduction", strategy]) == EXIT_OK
        assert "status:" in capsys.readouterr().out


def test_solve_node_limit(tmp_path, capsys):
    path = _write(tmp_path, "a.opb", OPB)
    assert main(["solve", path, "--node-limit", "1"]) == EXIT_LIMIT
    assert "limit" in capsys.readouterr().out


def test_check_agrees(tmp_path, capsys):
    path = _write(tmp_path, "p.txt", print_native(random_mbp_problem(52)))
    assert main(["check", path]) == EXIT_OK
    assert "AGREE" in capsys.readouterr().out


def test_check_infeasible(tmp_path, capsys):
    path = _write(tmp_path, "a.opb", "+1 x1 >= 1;\n-1 x1 >= 0;\n")
    assert main(["check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "solver=infeasible" in out and "AGREE" in out


def test_twophase_writes_learned_file(tmp_path, capsys):
    path = _write(tmp_path, "p.txt", print_native(random_mbp_problem(52)))
    learned = str(tmp_path / "learned.txt")
    assert main(["twophase", path, "--out-learned", learned]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("phase1 ") and "phase2 " in out
    for line in out.splitlines():
        tag, payload = line.split(" ", 1)
        json.loads(payload)
    assert open(learned).read().strip()


def test_bad_input_paths(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.opb")]) == EXIT_INPUT_ERROR
    bad = _write(tmp_path, "bad.opb", "+1 x1 >= 1\n")
    assert main(["solve", bad]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_bad_flags():
    assert main(["solve"]) == EXIT_INPUT_ERROR
    assert main([]) == EXIT_INPUT_ERROR


def test_seed_flag_is_rejected(tmp_path, capsys):
    """The search is deterministic and reads no seed, so none is accepted."""
    path = _write(tmp_path, "a.opb", OPB)
    assert main(["solve", path, "--seed", "1"]) == EXIT_INPUT_ERROR
    assert "--seed" in capsys.readouterr().err
