r"""The sample scenarios' CLI output must stay byte-identical to the committed goldens.

The goldens in ``tests/golden/`` define what "same answers" means for a
refactor: a change that moves any printed digit fails here.  Each scenario
has one golden per output format, ``<name>.csv`` and ``<name>.json``.

Regenerate a golden only for an intended change of the numbers, one file
at a time, from the root of the repository, for example::

    PYTHONPATH=src python -m diracsea.cli study \
        --scenario scenarios/scaling_study.json --format json \
        --out tests/golden/scaling_study.json

(``--format csv`` and a ``.csv`` name for the CSV golden) and name the
file and the reason in CHANGES.md.  Each CASES entry gives the command;
its scenario and its goldens share the entry's name.
"""

from pathlib import Path

import pytest

from diracsea.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("signature", "dust_signature"),
    ("project", "perturbed_projection"),
    ("bloch", "twelve_segment_bloch"),
    ("study", "scaling_study"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command,name", CASES, ids=[n for _, n in CASES])
def test_scenario_output_matches_golden(tmp_path, command, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    code = main([command, "--scenario", str(ROOT / "scenarios" / f"{name}.json"),
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    got, want = out.read_bytes(), (GOLDEN / f"{name}.{fmt}").read_bytes()
    # rows first, so a failure names the first row that differs
    assert got.decode().splitlines() == want.decode().splitlines()
    assert got == want
