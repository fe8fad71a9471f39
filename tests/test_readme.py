"""The README's library sketch runs, and the README names no deleted API."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_library_sketch_runs(capsys):
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme(), re.S)
    assert block is not None
    exec(compile(block.group(1), README, "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("pattern", [r"dedup=", r"\.edges\b", r"from_labels", r"symmetric_pair_rates", r"fixed_q", r"eta_grid"])
def test_no_deleted_api(pattern):
    assert re.search(pattern, readme()) is None
