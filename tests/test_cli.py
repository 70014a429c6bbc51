"""Command-line interface: exit codes, output shape, determinism."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from p5hom.cli import instance_digest, main
from p5hom.textio import parse_instance, parse_solution

C5_K2 = "H 2\nHEDGE 1 2\nG 5\nGEDGE 1 2\nGEDGE 2 3\nGEDGE 3 4\nGEDGE 4 5\nGEDGE 1 5\n"
P5_K2 = "H 2\nHEDGE 1 2\nG 5\nGEDGE 1 2\nGEDGE 2 3\nGEDGE 3 4\nGEDGE 4 5\n"


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.txt"
    p.write_text(C5_K2)
    return str(p)


@pytest.fixture
def p5_file(tmp_path):
    p = tmp_path / "p5.txt"
    p.write_text(P5_K2)
    return str(p)


def test_solve_reports_weight(c5_file, capsys):
    assert main(["solve", c5_file]) == 0
    out = capsys.readouterr().out
    assert "weight: 4/1" in out
    assert "algorithm: paper" in out
    assert "exhaustive: true" in out


def test_solve_oracle_agrees(c5_file, capsys):
    assert main(["solve", c5_file, "--algorithm", "oracle", "--check"]) == 0
    out = capsys.readouterr().out
    assert "weight: 4/1" in out
    assert "verified: ok" in out


def test_solve_force_connected(c5_file, capsys):
    assert main(["solve", c5_file, "--force-connected"]) == 0
    assert "weight: 4/1" in capsys.readouterr().out
    # the flag has no meaning for the oracle
    assert main(["solve", c5_file, "--algorithm", "oracle", "--force-connected"]) == 2


@pytest.mark.parametrize("flag, argv", [
    ("--force-connected", ["--algorithm", "oracle", "--force-connected"]),
    ("--budget", ["--algorithm", "oracle", "--budget", "3"]),
    ("--force", ["--force"]),
    ("--force", ["--algorithm", "paper", "--force", "--budget", "3"]),
])
def test_solve_flag_for_other_algorithm_is_exit_2(flag, argv, c5_file, capsys):
    # a flag the chosen algorithm would ignore is refused, not dropped
    assert main(["solve", c5_file, *argv]) == 2
    out, err = capsys.readouterr()
    assert flag in err
    assert out == ""


def test_solve_budget_reported(c5_file, capsys):
    assert main(["solve", c5_file, "--budget", "1"]) == 0
    assert "exhaustive: false" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "family", "blob"])
def test_negative_budget_is_exit_2(command, c5_file, capsys):
    assert main([command, c5_file, "--budget", "-5"]) == 2
    assert "budget" in capsys.readouterr().err


def test_non_p5free_input_rejected(p5_file, capsys):
    assert main(["check-p5free", p5_file]) == 3
    assert "induced P5: 1 2 3 4 5" in capsys.readouterr().out
    assert main(["solve", p5_file]) == 3
    # the oracle has no P5-free requirement
    assert main(["solve", p5_file, "--algorithm", "oracle"]) == 0


def test_force_connected_rejects_non_p5free(p5_file, capsys):
    # the connected stage's dominator tuples rest on P5-freeness too
    assert main(["solve", p5_file, "--force-connected"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "induced P5: 1 2 3 4 5" in err


def test_check_p5free_accepts(c5_file, capsys):
    assert main(["check-p5free", c5_file]) == 0
    assert "P5-free" in capsys.readouterr().out


def test_python_m_p5hom_runs_the_cli(c5_file):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "p5hom", "check-p5free", c5_file],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert "P5-free" in done.stdout


def test_bad_input_is_exit_2(tmp_path, c5_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("G 3\nH 2\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2
    assert main(["solve"]) == 2  # missing positional
    assert main(["solve", str(bad), "--algorithm", "bogus"]) == 2
    bare_list = tmp_path / "bare_list.txt"  # a LIST line with no vertex
    bare_list.write_text("H 2\nG 2\nLIST\n")
    assert main(["solve", str(bare_list)]) == 2
    for weight in ("1e3", "1.5", "1_0"):  # only n or n/d
        odd = tmp_path / "odd_weight.txt"
        odd.write_text(f"H 2\nG 2\nWT 1 {weight}\n")
        assert main(["solve", str(odd)]) == 2
        odd_sol = tmp_path / "odd_sol.txt"
        odd_sol.write_text(f"weight {weight}\nvertex 1 1\n")
        assert main(["verify", c5_file, str(odd_sol)]) == 2
    # counts, vertices and colors are ASCII integers too
    odd = tmp_path / "odd_int.txt"
    odd.write_text("H 1_0\nG \u0663\nGEDGE \u0661 +2\nLIST 1 0_1\n", encoding="utf-8")
    assert main(["solve", str(odd)]) == 2
    for line in ("vertex \u0661 1_0", "vertex 1 +1"):
        odd_sol = tmp_path / "odd_int_sol.txt"
        odd_sol.write_text(f"weight 1\n{line}\n", encoding="utf-8")
        assert main(["verify", c5_file, str(odd_sol)]) == 2


def test_verify_roundtrip(c5_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("weight 4/1\nvertex 1 1\nvertex 2 2\nvertex 3 1\nvertex 4 2\n")
    assert main(["verify", c5_file, str(sol)]) == 0
    assert "ok" in capsys.readouterr().out
    bad = tmp_path / "badsol.txt"
    bad.write_text("weight 4/1\nvertex 1 1\nvertex 2 1\nvertex 3 1\nvertex 4 2\n")
    assert main(["verify", c5_file, str(bad)]) == 1
    assert "violation" in capsys.readouterr().out
    # a vertex outside the graph parses but fails verification, as a
    # color outside the pattern does
    for line in ("vertex 9 1", "vertex 1 9"):
        stray = tmp_path / "stray.txt"
        stray.write_text(f"weight 1/1\n{line}\n")
        assert main(["verify", c5_file, str(stray)]) == 1
        assert "violation" in capsys.readouterr().out


def test_family_and_blob_listing(c5_file, capsys):
    assert main(["family", c5_file]) == 0
    fam_lines = capsys.readouterr().out.splitlines()
    assert "1" in fam_lines  # singletons present
    assert main(["blob", c5_file]) == 0
    out = capsys.readouterr().out
    assert "member 1:" in out
    assert "weight 1/1" in out


def test_gen_output_parses_and_is_deterministic(capsys):
    argv = ["gen", "--family", "cograph", "--n", "6", "--k", "2",
            "--seed", "7", "--density", "0.6", "--list-density", "0.8",
            "--weight-lo", "0", "--weight-hi", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.g.n == 6

    assert main(["gen", "--family", "random", "--n", "5", "--k", "2",
                 "--seed", "1"]) == 0
    assert parse_instance(capsys.readouterr().out).g.n == 5


def test_gen_rejection_failure_is_exit_2(capsys):
    assert main(["gen", "--family", "random", "--n", "10", "--k", "2",
                 "--seed", "0", "--density", "0.4", "--max-tries", "1"]) == 2


def test_difftest_passes_and_writes_nothing(tmp_path, capsys):
    rc = main(["difftest", "--trials", "6", "--max-n", "6",
               "--pattern", "complete:2", "--seed", "12",
               "--findings-dir", str(tmp_path / "fnd")])
    assert rc == 0
    assert "trials=6 failures=0" in capsys.readouterr().out
    assert not (tmp_path / "fnd").exists()


def test_difftest_bad_pattern(capsys):
    assert main(["difftest", "--trials", "1", "--max-n", "4",
                 "--pattern", "wheel:9", "--seed", "0"]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--pattern", "complete:0"),
    ("--pattern", "path:0"),
    ("--trials", "-1"),
    ("--trials", "0"),
    ("--max-n", "0"),
    ("--max-n", "1"),
])
def test_difftest_bad_arguments(flag, value, capsys):
    # a run that could not test anything is refused, not reported clean
    args = {"--trials": "1", "--max-n": "4", "--pattern": "complete:2", "--seed": "0"}
    args[flag] = value
    assert main(["difftest", *itertools.chain.from_iterable(args.items())]) == 2
    out, err = capsys.readouterr()
    assert flag in err
    assert "trials=" not in out


def test_difftest_pinned_example(tmp_path, capsys):
    rc = main(["difftest", "--trials", "5", "--max-n", "6",
               "--pattern", "complete:2", "--seed", "1",
               "--findings-dir", str(tmp_path / "fnd")])
    assert rc == 0


def test_instance_digest_stable(c5_file):
    inst = parse_instance(C5_K2)
    assert instance_digest(inst) == instance_digest(parse_instance(C5_K2))
    assert len(instance_digest(inst)) == 12


def test_solution_file_from_solve_output(c5_file, tmp_path, capsys):
    assert main(["solve", c5_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    weight = next(l.split(": ")[1] for l in lines if l.startswith("weight"))
    pairs = next(l.split(": ", 1)[1] for l in lines if l.startswith("vertices"))
    body = ["weight " + weight]
    body += [f"vertex {p.split(':')[0]} {p.split(':')[1]}" for p in pairs.split()]
    sol = parse_solution("\n".join(body) + "\n")
    assert sol.weight == 4
