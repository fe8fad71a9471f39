"""Batch command-line interface.

Subcommands: generate, cluster, bp, snr, sweep-eps, sweep-shape,
sweep-order, spectrum, eval.  Sweeps take their full configuration from a
JSON document (--config); the simpler commands use flags.  Each subcommand
accepts only the flags it reads.  All outputs are CSV/JSON plus the text
formats of the library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bp import BpConfig, bp_run
from .detectability import snr_report
from .experiments import ExperimentConfig, run, write_csv, write_json
from .hsbm import (
    rates_from_mean_degree,
    sample_planted,
    sample_symmetric,
    spec_from_json,
)
from .hypergraph import (
    load_hyperedge_list,
    load_partition,
    save_hyperedge_list,
    save_partition,
)
from .metrics import ami, confusion, hyperedge_composition
from .spectral import SpectralConfig, spectral_cluster


def _add_common(p, config=True):
    if config:
        p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--out", default="results", help="output directory")


def _load_config(args):
    if args.config is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _orders(text):
    return tuple(int(t) for t in text.split(","))


def cmd_generate(args):
    doc = _load_config(args)
    if args.seed is not None:
        doc["seed"] = args.seed
    spec = spec_from_json(doc)
    if hasattr(spec, "patterns"):
        h, planted = sample_planted(spec)
    else:
        h, planted = sample_symmetric(spec)
    os.makedirs(args.out, exist_ok=True)
    save_hyperedge_list(h, os.path.join(args.out, "hypergraph.txt"))
    save_partition(planted, os.path.join(args.out, "planted.txt"))
    print(f"n={h.n} m={h.m} orders={list(h.orders)} -> {args.out}")


def _write_confusion(path, truth, pred, row_normalize):
    mat = confusion(truth, pred, row_normalize=row_normalize)
    write_csv(
        path,
        ["class"] + [f"community_{j}" for j in range(mat.shape[1])],
        [[i] + [f"{x:.12g}" for x in row] for i, row in enumerate(mat)],
    )


def _write_composition(path, max_same):
    write_csv(path, ["order", "max_same_community", "count"], [[k, s, c] for (k, s), c in sorted(max_same.items())])


def cmd_cluster(args):
    """Cluster a file; with --labels also score it and compare compositions.

    The community count is --q if given, else the labels' count, else the
    number of negative eigenvalues.
    """
    h, names = load_hyperedge_list(args.input)
    truth = load_partition(args.labels, names) if args.labels else None
    q = args.q
    if q is None and truth is not None:
        q = truth.q
    cfg = SpectralConfig(eta=args.eta, seed=args.seed or 0, kmeans_restarts=args.kmeans_restarts)
    result = spectral_cluster(h, num_communities=q, config=cfg)
    doc = result.to_dict()
    if truth is not None:
        doc["ami"] = ami(result.partition, truth)
    out = args.out
    os.makedirs(out, exist_ok=True)
    save_partition(result.partition, os.path.join(out, "partition.txt"), names)
    write_json(os.path.join(out, "clustering.json"), doc)
    max_same, order_freq = hyperedge_composition(h, result.partition)
    _write_composition(os.path.join(out, "composition_detected.csv"), max_same)
    write_csv(os.path.join(out, "order_frequency.csv"), ["order", "count"], sorted(order_freq.items()))
    if truth is not None:
        _write_confusion(os.path.join(out, "confusion.csv"), truth, result.partition, True)
        _write_composition(os.path.join(out, "composition_labels.csv"), hyperedge_composition(h, truth)[0])
    score = f" ami={doc['ami']:.6f}" if truth is not None else ""
    print(f"eta={result.eta:.6g} q={result.partition.q} negative_eigenvalues={result.num_negative}{score}")


def _rate_args(args, fallback_orders=None, q=None):
    if args.c_in is not None or args.c_out is not None:
        if args.c_in is None or args.c_out is None:
            raise SystemExit("both --c-in and --c-out are required")
        return float(args.c_in), float(args.c_out)
    if args.d is None or args.eps is None:
        raise SystemExit("give either --c-in/--c-out or --d/--eps")
    return rates_from_mean_degree(q, fallback_orders, args.d, args.eps)


def cmd_bp(args):
    h, names = load_hyperedge_list(args.input)
    rates = _rate_args(args, fallback_orders=h.orders, q=args.q)
    # BpConfig fields from the JSON config, overridden by explicit flags
    doc = _load_config(args)
    overrides = {"max_sweeps": args.max_sweeps, "damping": args.damping, "init": args.init}
    if args.seed is not None:
        overrides["seed"] = args.seed
    doc.update({k: v for k, v in overrides.items() if v is not None})
    cfg = BpConfig(**doc)
    res = bp_run(h, args.q, rates, cfg)
    os.makedirs(args.out, exist_ok=True)
    save_partition(res.partition, os.path.join(args.out, "bp_partition.txt"), names)
    write_csv(
        os.path.join(args.out, "bp_marginals.csv"),
        ["node"] + [f"p{c}" for c in range(args.q)],
        [[names[i]] + [f"{x:.12g}" for x in row] for i, row in enumerate(res.marginals)],
    )
    print(f"sweeps={res.sweeps} converged={res.converged}")


def cmd_snr(args):
    orders = _orders(args.orders)
    c_in, c_out = _rate_args(args, orders, args.q)
    report = snr_report(args.q, orders, c_in=c_in, c_out=c_out, with_roots=args.roots)
    json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
    print()


def _sweep_config(args, experiment):
    doc = _load_config(args)
    named = doc.setdefault("experiment", experiment)
    if named != experiment:
        raise SystemExit(f"--config names experiment {named!r}, not {experiment!r}")
    if args.seed is not None:
        doc["seed"] = args.seed
    # an explicit --out wins over the config's "out"
    doc["out"] = args.out or doc.get("out", "results")
    return ExperimentConfig.from_json(doc)


def cmd_sweep(experiment):
    def handler(args):
        cfg = _sweep_config(args, experiment)
        out = run(cfg)
        print(f"{experiment} -> {out[0] if isinstance(out, tuple) else out}")

    return handler


def cmd_eval(args):
    _, names = load_hyperedge_list(args.input)
    pred = load_partition(args.pred, names)
    truth = load_partition(args.truth, names)
    score = ami(pred, truth)
    print(f"ami={score:.6f}")
    if args.confusion:
        _write_confusion(args.confusion, truth, pred, args.normalize)


def build_parser():
    top = argparse.ArgumentParser(prog="hyperbethe", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a hypergraph from a JSON model spec")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="Bethe Hessian spectral clustering of a file")
    _add_common(p, config=False)
    p.add_argument("--input", required=True)
    p.add_argument("--labels", default=None, help="'token label' file to score against")
    p.add_argument("--q", type=int, default=None, help="fixed community count")
    p.add_argument("--eta", type=float, default=None, help="regularization override")
    p.add_argument("--kmeans-restarts", type=int, default=20)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("bp", help="belief propagation on a hypergraph file")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c-in", type=float, default=None)
    p.add_argument("--c-out", type=float, default=None)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--max-sweeps", type=int, default=None)
    p.add_argument("--damping", type=float, default=None)
    p.add_argument("--init", default=None, choices=("uniform", "perturbed"))
    p.set_defaults(func=cmd_bp)

    p = sub.add_parser("snr", help="detectability report for model parameters")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--orders", required=True, help="comma-separated, e.g. 2,3")
    p.add_argument("--c-in", type=float, default=None)
    p.add_argument("--c-out", type=float, default=None)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--roots", action="store_true", help="include critical eps roots")
    p.set_defaults(func=cmd_snr)

    for name, expid in (
        ("sweep-eps", "eps-sweep"),
        ("sweep-shape", "shape-sweep"),
        ("sweep-order", "order-sweep"),
        ("spectrum", "spectrum"),
    ):
        p = sub.add_parser(name, help=f"run the {expid} experiment from --config")
        _add_common(p)
        p.set_defaults(func=cmd_sweep(expid), out=None)

    p = sub.add_parser("eval", help="AMI/confusion between two partition files")
    p.add_argument("--input", required=True, help="hyperedge file defining node names")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--confusion", default=None, help="write confusion CSV here")
    p.add_argument("--normalize", action="store_true", help="row-normalize the --confusion CSV")
    p.set_defaults(func=cmd_eval)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.normalize and not args.confusion:
        parser.error("eval: --normalize needs --confusion")
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
