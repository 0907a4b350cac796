"""Byte-for-byte CLI outputs recorded before the law scans moved onto lane
batches: every suite's verdicts and counts, the release-naive counterexample
(on a non-total trace) and both `equiv` documents must not change."""

import json
import os

import pytest

from mdel.cli import main

with open(os.path.join(os.path.dirname(__file__), "golden_cli.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[c["id"] for c in GOLDEN["cases"]])
def test_cli_output_unchanged(case, tmp_path, capsys):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in GOLDEN["files"] else a for a in case["argv"]]
    code = main(argv)
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])
