"""The README's library sketch, its `hyperbethe snr` example and its model
specs run, its CLI table names each command's flags, and the README names no
deleted API."""

import argparse
import json
import os
import re
import shlex

import pytest

from hyperbethe import PlantedPatternSpec, SymmetricHsbmSpec, sample_symmetric, spec_from_json
from hyperbethe.cli import build_parser
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


def test_model_specs_load():
    section = readme().split("A `model.json` for `generate`", 1)[1].split("\n## ", 1)[0]
    specs = [spec_from_json(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]
    assert [type(spec) for spec in specs] == [SymmetricHsbmSpec, PlantedPatternSpec]
    for spec in specs:
        assert sample_symmetric(spec)[0].m > 0


def test_cli_table_matches_the_parser():
    table = re.search(r"^\| command \| flags \|\n(.*?)\n\n", readme(), re.M | re.S).group(1)
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(rows) == set(commands.choices) and len(rows) == 6
    for command, parser in commands.choices.items():
        flags = {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z-]+", rows[command])) == flags, command


@pytest.mark.parametrize(
    "pattern",
    [
        r"dedup=", r"\.edges\b", r"from_labels", r"symmetric_pair_rates", r"fixed_q", r"eta_grid",
        r"sweep-(eps|shape|order)", r'"mode"', r"sample_planted", r"SnrReport", r"with_roots", r"--roots", r"--init",
        r"planted_smoothing", r'"init"',
    ],
)
def test_no_deleted_api(pattern):
    assert re.search(pattern, readme()) is None
