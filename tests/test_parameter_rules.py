"""Each HSBM parameter rule gives one HsbmError message at every entry point.

The rules live in hsbm (check_q, model_orders, check_rates,
rates_from_mean_degree, model_rates, degree_scale); the spec, the detectability
calculators, BP and the CLI reach them instead of checking on their own.  A
cell of the table is one bad input at one entry point: the library raises
HsbmError whose text matches the rule, the CLI exits 2 with that text as its
one stderr line and writes nothing on stdout.
"""

import json
import math
import re

import pytest

from hyperbethe import (
    SymmetricHsbmSpec,
    bp_run,
    critical_epsilon,
    degrees_from_rates,
    rates_from_mean_degree,
    sample_symmetric,
    save_hyperedge_list,
    snr_report,
)
from hyperbethe.cli import main as cli_main
from hyperbethe.hsbm import HsbmError, model_rates
from hyperbethe.spectral import SpectralError

nan, inf = math.nan, math.inf

BASES = {"rates": {"c_in": 5.0, "c_out": 1.0}, "degree": {"d": 10.0, "eps": 0.1}}

SCALE = r"order \d+: q\^\(k-1\) \(k-1\)! = \d+\^\d+ \d+! exceeds the float range"

# rule -> (message pattern, [(base, overrides), ...])
RULES = {
    "q": (
        r"q = -?\d+ must be >= 2",
        [(base, {"q": q}) for base in BASES for q in (1, 0)],
    ),
    "empty_orders": (
        r"order set must be nonempty",
        [(base, {"orders": ()}) for base in BASES],
    ),
    "low_order": (
        r"orders must be >= 2",
        [(base, {"orders": orders}) for base in BASES for orders in ((1, 2), (0, 2, 3))],
    ),
    # (d, eps) meet the degree scale q^(k-1) (k-1)! in rates_from_mean_degree, (c_in, c_out) only
    # where degrees are computed from them
    "scale": (
        SCALE,
        [("degree", {"orders": orders}) for orders in ((2, 400), (3, 180))]
        + [("degree", {"q": 2, "orders": (2, 200)})],
    ),
    "rates_scale": (
        SCALE,
        [("rates", {"orders": orders}) for orders in ((2, 400), (3, 180))]
        + [("rates", {"q": 2, "orders": (2, 200)})],
    ),
    "rates": (
        r"rates \(.*\) must be finite, nonnegative and not both zero",
        [
            ("rates", {"c_in": nan}),
            ("rates", {"c_out": nan}),
            ("rates", {"c_in": inf}),
            ("rates", {"c_out": -inf}),
            ("rates", {"c_in": -1.0}),
            ("rates", {"c_out": -0.5}),
            ("rates", {"c_in": 0.0, "c_out": 0.0}),
        ],
    ),
    "d": (
        r"mean degree \S+ must be positive and finite",
        [("degree", {"d": d}) for d in (0.0, -1.0, nan, inf, -inf)],
    ),
    "eps": (
        r"eps \S+ must be nonnegative and finite",
        [("degree", {"eps": eps}) for eps in (-0.1, nan, inf)],
    ),
    "pair": (
        r"give exactly one of \(c_in, c_out\) or \(d, eps\), with both halves of that pair",
        [
            ("rates", {"c_out": None}),
            ("rates", {"c_in": None}),
            ("degree", {"eps": None}),
            ("degree", {"d": None}),
            ("rates", {"d": 10.0, "eps": 0.1}),
            ("rates", {"c_in": None, "c_out": None}),
            ("rates", {"c_out": None, "eps": 0.1}),
        ],
    ),
}

BOTH, ALL = ("rates", "degree"), tuple(rule for rule in RULES if rule != "rates_scale")

H = sample_symmetric(SymmetricHsbmSpec(n=90, q=3, orders=(2, 3), d=6.0, eps=0.1, seed=0))[0]

# entry point -> (bases it takes, rules it applies, call on a parameter dict)
LIBRARY = {
    # blocks of at least 10**6 // 3 nodes hold every order in the table
    "SymmetricHsbmSpec": (BOTH, ALL, lambda p: SymmetricHsbmSpec(n=10**6, **p)),
    "model_rates": (BOTH, ALL, lambda p: model_rates(**p)),
    "rates_from_mean_degree": (
        ("degree",),
        ("q", "empty_orders", "low_order", "scale", "d", "eps"),
        lambda p: rates_from_mean_degree(p["q"], p["orders"], p["d"], p["eps"]),
    ),
    "degrees_from_rates": (
        ("rates",),
        ("q", "empty_orders", "low_order", "rates_scale", "rates"),
        lambda p: degrees_from_rates(p["q"], p["orders"], p["c_in"], p["c_out"]),
    ),
    "snr_report": (BOTH, ALL + ("rates_scale",), lambda p: snr_report(**p)),
    "critical_epsilon": (
        ("degree",),
        ("q", "empty_orders", "low_order", "scale", "d"),
        lambda p: critical_epsilon(p["q"], p["orders"], p["d"]),
    ),
    # BP's own q >= 2 check is a BpError, and its orders come from the hypergraph
    "bp_run": (("rates",), ("rates",), lambda p: bp_run(H, p["q"], (p["c_in"], p["c_out"]))),
}

# the CLI cannot pass an empty order set (--orders is parsed by argparse), and bp reads its orders from the file
CLI = {
    "snr": (BOTH, ("q", "low_order", "scale", "rates_scale", "rates", "d", "eps", "pair")),
    "bp": (BOTH, ("q", "rates", "d", "eps", "pair")),
}


def params(base, overrides):
    p = {"q": 3, "orders": (2, 3), **BASES[base], **overrides}
    return {k: v for k, v in p.items() if v is not None}


def cells(entries):
    for name, (bases, rules, *_) in entries.items():
        for rule in rules:
            for i, (base, overrides) in enumerate(RULES[rule][1]):
                if base in bases:
                    yield pytest.param(name, rule, params(base, overrides), id=f"{name}-{rule}-{base}-{i}")


@pytest.mark.parametrize("entry, rule, p", cells(LIBRARY))
def test_library_rule(entry, rule, p):
    with pytest.raises(HsbmError) as exc:
        LIBRARY[entry][2](p)
    assert re.fullmatch(RULES[rule][0], str(exc.value))


def cli_argv(command, p, tmp_path):
    argv = [command, "--q", str(p["q"])]
    if command == "snr":
        argv += ["--orders", ",".join(map(str, p["orders"]))]
    else:
        path = tmp_path / "edges.txt"
        save_hyperedge_list(H, str(path))
        argv += ["--input", str(path), "--out", str(tmp_path / "out")]
    for key in ("c_in", "c_out", "d", "eps"):
        if key in p:
            argv.append(f"--{key.replace('_', '-')}={p[key]}")  # "=" lets "-inf" through argparse
    return argv


@pytest.mark.parametrize("command, rule, p", cells(CLI))
def test_cli_rule(command, rule, p, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(cli_argv(command, p, tmp_path))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    prefix = f"hyperbethe {command}: error: "
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert re.fullmatch(RULES[rule][0], captured.err[len(prefix):-1])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("orders", ["x", "", "2,,3", "2.5"])
def test_bad_order_list_is_a_usage_error(orders, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["snr", "--q", "3", "--orders", orders, "--d", "10", "--eps", "0.1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "usage:" in captured.err
    assert captured.err.splitlines()[-1].startswith("hyperbethe snr: error: argument --orders: ")


def test_other_library_errors_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    edges = tmp_path / "edges.txt"
    save_hyperedge_list(H, str(edges))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"experiment": "eps-sweep", "n": 300, "q": 3, "orders": [2], "d": 5, "grid": [0.1],
                                 "reps": 0}))
    out = ["--out", str(tmp_path / "out")]
    # a DetectabilityError, a HypergraphError, a SpectralError, a BpError and an ExperimentError
    cases = [
        (["snr", "--q", "3", "--orders", "2", "--c-in", "1", "--c-out", "5"], "disassortative"),
        (["cluster", "--input", str(empty), *out], "no hyperedges"),
        (["cluster", "--input", str(edges), "--eta", "0.5", *out], "eta override 0.5 must be finite and > 1"),
        (["bp", "--input", str(edges), "--q", "3", "--d", "5", "--eps", "0.1", "--damping", "2", *out], "damping"),
        (["run", "--config", str(sweep), *out], "repetitions"),
    ]
    for argv, needle in cases:
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith(f"hyperbethe {argv[0]}: error: ") and captured.err.count("\n") == 1
        assert needle in captured.err


def test_largest_order_whose_scale_fits_is_accepted():
    # 2^150 150! = 8.2e307 fits in a float, 2^151 151! = 2.5e310 does not
    assert math.isfinite(rates_from_mean_degree(2, (2, 151), 5.0, 0.1)[0])
    with pytest.raises(HsbmError, match="order 152"):
        rates_from_mean_degree(2, (2, 152), 5.0, 0.1)


@pytest.mark.parametrize(
    "model, needle",
    [
        # the first cell's Poisson mean, 2.2e26, is beyond numpy's range
        (
            {"n": 100, "q": 2, "orders": [2], "d": 1e25, "eps": 0.1},
            r"cell 0 \(order 2, composition \{0: 2\}\): its Poisson mean is beyond the range .*",
        ),
        # #tuples = C(5e6, 150) and n^149 overflow a float, though the order's degree scale fits
        (
            {"n": 10**7, "q": 2, "orders": [150], "d": 5.0, "eps": 0.1},
            r"cell 0 \(order 150, composition \{0: 150\}\): its Poisson mean is beyond the range .*",
        ),
        # the first cell draws about 2e15 hyperedges, more than numpy can allocate
        (
            {"n": 100, "q": 2, "orders": [2], "d": 1e14, "eps": 0.1},
            r"cell 0 \(order 2, composition \{0: 2\}\): its \d+ drawn hyperedges do not fit in memory",
        ),
    ],
)
def test_cell_mean_out_of_range_exits_2(model, needle, tmp_path, capsys):
    config = tmp_path / "model.json"
    config.write_text(json.dumps(model))
    with pytest.raises(SystemExit) as exc:
        cli_main(["generate", "--config", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    prefix = "hyperbethe generate: error: "
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert re.fullmatch(needle, captured.err[len(prefix):-1])
    assert not (tmp_path / "out").exists()


def test_spectral_errors_exit_2(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SpectralError("no structure")

    edges = tmp_path / "edges.txt"
    save_hyperedge_list(H, str(edges))
    monkeypatch.setattr("hyperbethe.cli.spectral_cluster", fail)
    with pytest.raises(SystemExit) as exc:
        cli_main(["cluster", "--input", str(edges), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == "hyperbethe cluster: error: no structure\n"
    assert not (tmp_path / "out").exists()
