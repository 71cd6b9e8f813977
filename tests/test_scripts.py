"""Smoke tests: each experiment script runs in process at a tiny size."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, argv: list[str], capsys) -> tuple[int, list[str]]:
    main = runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]
    code = main(argv)
    return code, capsys.readouterr().out.splitlines()


def test_classification_survey(capsys):
    code, lines = run_script("classification_survey", ["--frames", "2"], capsys)
    assert code == 0
    assert lines[0] == "2 frames per cell, 3-8 moments, 2 agents"
    assert [row.split()[0] for row in lines[3:]] == ["0.00", "0.25", "0.50", "0.75"]


@pytest.mark.parametrize("kind", ["stit", "temporal", "jstit"])
def test_falsify_target(kind, capsys):
    code, lines = run_script("falsify_target", ["--kind", kind, "--count", "2"], capsys)
    assert code == 0
    assert lines[-1] == "2/2 rounds falsified the target on a validated model"


def test_soundness_probe(capsys):
    code, lines = run_script(
        "soundness_probe", ["--per-scheme", "1", "--max-moments", "1"], capsys)
    assert code == 0
    assert [line.split(" (")[0] for line in lines[:-1]] == [
        f"A{i}: 1/1 instances clear" for i in range(10)]
    assert lines[-1] == "no counter-models found"
