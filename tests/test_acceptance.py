"""Acceptance gate.

Runs every numbered criterion from the verification registry, one test
per criterion so the verbose run shows one pass or fail line each, then
checks the command line contract: the documented report shapes, byte
identical reruns under a fixed seed, and the exit code scheme.
"""

import json
import os
import subprocess
import sys

import pytest

import braidhom
from braidhom.cli import main
from braidhom.verify import CRITERIA, DEFAULT_SEED, run_criteria

CRITERION_IDS = ["%02d-%s" % (number, name) for number, name, _ in CRITERIA]


@pytest.mark.parametrize("entry", CRITERIA, ids=CRITERION_IDS)
def test_criterion(entry):
    number, name, func = entry
    result = func(DEFAULT_SEED)
    mark = "PASS" if result.passed else "FAIL"
    print("[%s] criterion %d (%s): %s" % (mark, number, name, result.detail))
    assert result.passed, result.detail


def test_registry_is_complete():
    numbers = [number for number, _, _ in CRITERIA]
    assert numbers == list(range(1, 12))
    results = run_criteria(numbers=[1], seed=DEFAULT_SEED)
    assert len(results) == 1 and results[0].number == 1


# ---------------------------------------------------------------------------
# command line contract


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cli_abelianize_contract(capsys):
    code, out = _run(["abelianize", "--catalog", "surface:2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 4
    assert payload["torsion"] == []
    assert "anchors" in payload


def test_cli_b1_contract(capsys):
    code, out = _run(["b1", "--space", "genus:2", "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["h1_rank"] == 12
    assert payload["divisors_all_one"] is True
    assert payload["anchors"]


def test_cli_verdict_contract(capsys):
    code, out = _run(
        ["verdict", "--space", "c-star", "--n", "2", "--flavor", "pure"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "NotKahler"
    assert payload["witnesses"] == {"b1": 3}
    assert all(step["rule"] == "R7" for step in payload["trace"])


def test_cli_seeded_rerun_is_byte_identical(capsys):
    argv = ["tangent", "--genus", "2", "--seed", "23"]
    _, first = _run(argv, capsys)
    _, second = _run(argv, capsys)
    assert first == second
    assert json.loads(first)["seed"] == 23


def test_cli_verify_subset(capsys):
    code, out = _run(["verify", "--criteria", "1,8", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert [r["number"] for r in payload["results"]] == [1, 8]


def test_cli_usage_errors_exit_2(capsys):
    code, _ = _run(["abelianize"], capsys)
    assert code == 2
    code, _ = _run(["b1", "--space", "nonsense:7", "--n", "3"], capsys)
    assert code == 2
    code, _ = _run(["charp", "--group", "artin_pure:3", "--p", "6"], capsys)
    assert code == 2


def test_cli_module_entry_point():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(braidhom.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "braidhom", "charvar", "--genus", "2", "--ranks", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["char_dims"] == [6]
    assert payload["tangent"] == 6
