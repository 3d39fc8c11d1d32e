"""EXPERIMENTS.md quotes the program: each fast row's report, verbatim.

Every fast row of ``python -m repro.experiments`` has one block in
EXPERIMENTS.md: ``<!-- row: NAME -->``, a fenced copy of what the row
prints under its header bar (its report, then its ``paper shapes: k/n
hold`` line), then ``<!-- /row -->``. Regenerating a block means pasting
the row's output; on a mismatch this test prints the block to paste.
"""

import re
from pathlib import Path

import pytest

from repro.experiments.__main__ import _FAST, _run, _verdict

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BLOCK = re.compile(r"<!-- row: (\S+) -->\n```\n(.*?)\n```\n<!-- /row -->", re.S)


def test_each_fast_row_report_is_quoted_verbatim(experiment_results):
    blocks = BLOCK.findall(EXPERIMENTS_MD.read_text(encoding="utf-8"))
    assert [name for name, _ in blocks] == _FAST
    stale = []
    for name, quoted in blocks:
        body, claims = _run(name, experiment_results)
        printed = f"{body}\n{_verdict(claims)}"
        if quoted != printed:
            stale.append(f"<!-- row: {name} -->\n```\n{printed}\n```\n<!-- /row -->")
    if stale:
        pytest.fail("stale EXPERIMENTS.md blocks; paste:\n\n" + "\n\n".join(stale),
                    pytrace=False)
