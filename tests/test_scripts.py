"""Smoke tests for the command-line scripts under ``scripts/``.

The scripts import solver names directly, so a refactor that renames or
deletes one of them breaks a script without breaking any other test.
``validate_random`` is also an oracle cross-check on general-integer
instances.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("two_phase_experiment", ["--size", "2", "--quiet"]),
        ("validate_random", ["--binary", "3", "--mixed", "2", "--integer", "2"]),
        (
            "transcript",
            ["--binary", "4", "--mixed", "2", "--integer", "2", "--every", "2",
             "--desk", "1", "--pigeonhole", "4"],
        ),
    ],
    ids=["two_phase_experiment", "validate_random", "transcript"],
)
def test_script_main_succeeds(name, argv):
    assert _load(name).main(argv) == 0
