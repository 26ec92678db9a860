"""CLI stdout and exit codes, byte for byte, against recorded outputs.

``golden_cli.json`` holds 24 invocations with their exit codes and stdout:
``degenerate``, ``enumerate`` on F4, E6, B5 and D4 (whose ``matched_row``
automorphisms include non-identity ones), ``compute`` with every method,
``verify-tables``, ``check`` and ``tables dump``.  A refactor that must not
change output keeps this test green without editing the file.
"""

import json
from pathlib import Path

import pytest

from sphroots.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_golden(capsys, case):
    code = main(list(case["argv"]))
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])
