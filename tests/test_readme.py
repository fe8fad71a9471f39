"""The README's library sketch and its `hyperbethe snr` example run, and the
README names no deleted API."""

import json
import os
import re
import shlex

import pytest

from hyperbethe.cli import main as cli_main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_library_sketch_runs(capsys):
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme(), re.S)
    assert block is not None
    exec(compile(block.group(1), README, "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_snr_example_runs(capsys):
    line = re.search(r"^hyperbethe snr .*$", readme(), re.M)
    assert line is not None
    assert cli_main(shlex.split(line.group(0))[1:]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["snr_bh"] > 1.0 and doc["eps_bh"] is not None


@pytest.mark.parametrize("pattern", [r"dedup=", r"\.edges\b", r"from_labels", r"symmetric_pair_rates", r"fixed_q", r"eta_grid"])
def test_no_deleted_api(pattern):
    assert re.search(pattern, readme()) is None
