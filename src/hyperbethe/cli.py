"""Batch command-line interface.

Subcommands: generate, cluster, bp, snr, run, eval.  generate and run take
their whole input from a JSON document (--config): a model spec for
generate, an experiment config for run, whose "experiment" key picks the
experiment.  A --seed or --out given with it replaces that key of the
document before hsbm.read_json reads it.  The other commands use flags.  Each subcommand accepts only
the flags it reads.  All outputs are CSV/JSON plus the text formats of the
library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bp import BpConfig, BpError, bp_run
from .detectability import DetectabilityError, snr_report
from .experiments import ExperimentConfig, ExperimentError, run, write_csv, write_json
from .hsbm import HsbmError, model_rates, read_json, sample_symmetric, spec_from_json
from .hypergraph import (
    HypergraphError,
    load_hyperedge_list,
    load_partition,
    save_hyperedge_list,
    save_partition,
)
from .metrics import ami, confusion, hyperedge_composition
from .spectral import SpectralConfig, SpectralError, spectral_cluster


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--out", default="results", help="output directory")


def _load_config(args, **flags):
    """The --config JSON document; the flags that were given replace its keys."""
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return dict(doc, **_given(**flags)) if isinstance(doc, dict) else doc


def _orders(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _given(**flags):
    """The flags given on the command line."""
    return {k: v for k, v in flags.items() if v is not None}


def cmd_generate(args):
    spec = spec_from_json(_load_config(args, seed=args.seed))
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
    flags = _given(eta=args.eta, seed=args.seed, kmeans_restarts=args.kmeans_restarts)
    cfg = read_json(SpectralConfig, flags, SpectralError)
    h, names = load_hyperedge_list(args.input)
    truth = load_partition(args.labels, names) if args.labels else None
    q = truth.q if args.q is None and truth is not None else args.q
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


def cmd_bp(args):
    flags = _given(max_sweeps=args.max_sweeps, tol=args.tol, damping=args.damping, seed=args.seed)
    cfg = read_json(BpConfig, flags, BpError)
    h, names = load_hyperedge_list(args.input)
    rates = model_rates(args.q, h.orders, c_in=args.c_in, c_out=args.c_out, d=args.d, eps=args.eps)
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
    report = snr_report(args.q, args.orders, c_in=args.c_in, c_out=args.c_out, d=args.d, eps=args.eps)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()


def cmd_run(args):
    # an explicit --out wins over the config's "out", which wins over results/
    cfg = ExperimentConfig.from_json(_load_config(args, seed=args.seed, out=args.out))
    out = run(cfg)
    print(f"{cfg.experiment} -> {out[0] if isinstance(out, tuple) else out}")


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
    p.add_argument("--config", required=True, help="JSON model spec")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="Bethe Hessian spectral clustering of a file")
    _add_common(p)
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
    p.add_argument("--tol", type=float, default=None, help="convergence threshold on the message change")
    p.add_argument("--damping", type=float, default=None)
    p.set_defaults(func=cmd_bp)

    p = sub.add_parser("snr", help="detectability report for model parameters")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--orders", type=_orders, required=True, help="comma-separated, e.g. 2,3")
    p.add_argument("--c-in", type=float, default=None)
    p.add_argument("--c-out", type=float, default=None)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("run", help="run the experiment that a JSON config names")
    p.add_argument("--config", required=True, help="JSON experiment config")
    _add_common(p)
    p.set_defaults(func=cmd_run, out=None)

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
    try:
        args.func(args)
    except (HsbmError, DetectabilityError, HypergraphError, BpError, ExperimentError, SpectralError,
            OSError, json.JSONDecodeError) as exc:  # also an unreadable file or a config that is not JSON
        parser.exit(2, f"hyperbethe {args.command}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
