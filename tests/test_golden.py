r"""The sample scenarios' CLI CSV must stay byte-identical to the committed goldens.

The goldens in ``tests/golden/`` define what "same answers" means for a
refactor: a change that moves any printed digit fails here.

Regenerate a golden only for an intended change of the numbers, one file
at a time, from the root of the repository, for example::

    PYTHONPATH=src python -m diracsea.cli study \
        --scenario scenarios/scaling_study.json \
        --out tests/golden/scaling_study.csv

and name the file and the reason in CHANGES.md.  Each CASES entry gives
the command; its scenario and its golden share the entry's name.
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


@pytest.mark.parametrize("command,name", CASES, ids=[n for _, n in CASES])
def test_scenario_csv_matches_golden(tmp_path, command, name):
    out = tmp_path / f"{name}.csv"
    code = main([command, "--scenario", str(ROOT / "scenarios" / f"{name}.json"),
                 "--out", str(out)])
    assert code == 0
    got, want = out.read_bytes(), (GOLDEN / f"{name}.csv").read_bytes()
    # rows first, so a failure names the first row that differs
    assert got.decode().splitlines() == want.decode().splitlines()
    assert got == want
