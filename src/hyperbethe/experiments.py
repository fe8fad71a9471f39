"""Experiment orchestration: parameter sweeps and spectrum dumps.

Every runner is deterministic for a fixed config: per-run seeds derive from
(master seed, grid index, repetition) and outputs are written as CSV/JSON
with stable formatting, so repeated runs produce byte-identical files.

All sweeps share one grid x reps loop.  A repetition in which spectral
detection finds no structure (SpectralError) scores 0 on every column the
spectral partition feeds, and means always run over all repetitions; any
other exception fails the sweep.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bp import BpConfig, bp_run
from .detectability import snr_report, switching_rho
from .hsbm import (
    SymmetricHsbmSpec,
    order_experiment_spec,
    sample_planted,
    sample_symmetric,
    shape_experiment_spec,
)
from .hypergraph import Partition
from .metrics import ami
from .nonbacktracking import nonbacktracking_matrix
from .spectral import SpectralError, bethe_hessian, bulk_radius, spectral_cluster


class ExperimentError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str  # eps-sweep | shape-sweep | order-sweep | spectrum
    n: int = 3000
    q: int = 2
    orders: tuple = (2, 3)
    d: float = 10.0
    grid: tuple = ()
    reps: int = 20
    methods: tuple = ("bh",)
    seed: int = 0
    out: str = "results"
    fixed_q: int | None = None
    shape_order: int = 4
    low_order: int = 2
    high_order: int = 3
    bp: BpConfig = BpConfig()
    eta_grid: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "grid", tuple(float(x) for x in self.grid))
        object.__setattr__(self, "orders", tuple(int(k) for k in self.orders))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.reps < 1:
            raise ExperimentError("repetitions must be >= 1")
        if self.experiment in ("eps-sweep", "shape-sweep", "order-sweep") and not self.grid:
            raise ExperimentError("sweep experiments need a nonempty grid")
        if self.experiment == "eps-sweep" and not (self.methods and set(self.methods) <= {"bh", "bp"}):
            raise ExperimentError(f"eps-sweep methods {self.methods} must be a nonempty subset of ('bh', 'bp')")

    @classmethod
    def from_json(cls, doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        doc = dict(doc)
        if "bp" in doc:
            doc["bp"] = BpConfig(**doc["bp"])
        for key in ("grid", "orders", "methods", "eta_grid"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc)


def _run_seed(master, point, rep):
    return int(np.random.SeedSequence([int(master), int(point), int(rep)]).generate_state(1)[0])


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.12g}"


def _mean_stderr(values):
    if not values:
        return None, None
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, stderr


def write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_json(path, doc):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def transition_point(grid, means, level=0.02):
    """Smallest grid value whose mean stays below `level` from there on.

    Returns None when the curve never settles below the level.
    """
    grid = list(grid)
    means = list(means)
    last_above = -1
    for i, v in enumerate(means):
        if v is None or v >= level:
            last_above = i
    if last_above == len(grid) - 1:
        return None
    return grid[last_above + 1]


def crossing_points(grid, a, b):
    """Linear-interpolation crossings of two mean curves over the grid."""
    out = []
    for i in range(len(grid) - 1):
        if None in (a[i], a[i + 1], b[i], b[i + 1]):
            continue
        d0 = a[i] - b[i]
        d1 = a[i + 1] - b[i + 1]
        if d0 == d1:
            continue
        if d0 == 0.0:
            out.append(grid[i])
        elif d0 * d1 < 0.0:
            out.append(grid[i] + (grid[i + 1] - grid[i]) * d0 / (d0 - d1))
    return out


def _bh_scores(h, q, *truths):
    """AMI of the Bethe Hessian partition against each truth; no structure scores 0."""
    try:
        part = spectral_cluster(h, num_communities=q).partition
    except SpectralError:
        return [0.0] * len(truths)
    return [ami(part, t) for t in truths]


def _sweep(cfg, name, axis, columns, score):
    """The grid x reps loop of every sweep; writes <name>_sweep.csv.

    score(value, seed) samples one instance, detects and returns
    {column: AMI} for the columns it ran.  Each column's mean and stderr go
    over every rep; a column never scored is written as "".  Returns the
    CSV path and the per-column curves of means.
    """
    rows, curves = [], {c: [] for c in columns}
    for p_idx, value in enumerate(cfg.grid):
        scores = {c: [] for c in columns}
        for rep in range(cfg.reps):
            for c, s in score(value, _run_seed(cfg.seed, p_idx, rep)).items():
                scores[c].append(s)
        row = [_fmt(value)]
        for c in columns:
            mean, stderr = _mean_stderr(scores[c])
            curves[c].append(mean)
            row += [_fmt(mean), _fmt(stderr)]
        rows.append(row)
    header = [axis] + [f"ami_{c}_{stat}" for c in columns for stat in ("mean", "stderr")]
    return write_csv(os.path.join(cfg.out, f"{name}_sweep.csv"), header, rows), curves


def run_eps_sweep(cfg: ExperimentConfig):
    """Phase-transition sweep over the mixing ratio eps = c_out/c_in.

    Per grid point and repetition: sample, detect with the requested
    methods, score AMI against the planted partition.  Spectral detection
    estimates the community count from the negative eigenvalues unless
    fixed_q is set.  Finding no structure (a SpectralError) scores 0; BP
    that stops at its sweep cap still scores; any other error fails the
    sweep.
    """

    def score(eps, seed):
        spec = SymmetricHsbmSpec(n=cfg.n, q=cfg.q, orders=cfg.orders, d=cfg.d, eps=eps, seed=seed)
        h, planted = sample_symmetric(spec)
        out = {}
        if "bh" in cfg.methods:
            out["bh"] = _bh_scores(h, cfg.fixed_q, planted)[0]
        if "bp" in cfg.methods:
            res = bp_run(h, cfg.q, spec.rates(), replace(cfg.bp, seed=seed), planted=planted)
            out["bp"] = ami(res.partition, planted)
        return out

    csv_path, means = _sweep(cfg, "eps", "eps", ("bh", "bp"), score)
    curves = {m: means[m] for m in cfg.methods}
    report = snr_report(cfg.q, cfg.orders, d=cfg.d, eps=0.0, with_roots=True)
    doc = {
        "experiment": "eps-sweep",
        "n": cfg.n,
        "q": cfg.q,
        "orders": list(cfg.orders),
        "d": cfg.d,
        "grid": list(cfg.grid),
        "reps": cfg.reps,
        "eps_bh_star": report.eps_bh,
        "eps_bp_star": report.eps_bp,
        "transition_bh": transition_point(cfg.grid, curves["bh"]) if "bh" in curves else None,
        "transition_bp": transition_point(cfg.grid, curves["bp"]) if "bp" in curves else None,
    }
    json_path = write_json(os.path.join(cfg.out, "eps_sweep.json"), doc)
    return csv_path, json_path, curves


def _run_competition(cfg: ExperimentConfig, name, make_spec, rho_star, annotations):
    """Shared runner of the shape and order sweeps: detect 2 communities and
    score against both coarse plantings; writes <name>_sweep.csv/.json.

    make_spec(rho, seed) is the planted model; rho_star(adjusted=, d=) the
    predicted switching point.
    """

    def score(rho, seed):
        h, planted = sample_planted(make_spec(rho, seed))
        # the coarse plantings {0,1}|{2,3} and {0,2}|{1,3} as maps of the 4 planted labels
        truths = [Partition(np.array(lut)[planted.labels], 2) for lut in ((0, 0, 1, 1), (0, 1, 0, 1))]
        return dict(zip(("0123", "0213"), _bh_scores(h, 2, *truths)))

    csv_path, curves = _sweep(cfg, name, "rho", ("0123", "0213"), score)
    curve_a, curve_b = curves["0123"], curves["0213"]
    doc = dict(
        annotations,
        experiment=f"{name}-sweep",
        n=cfg.n,
        d=cfg.d,
        grid=list(cfg.grid),
        reps=cfg.reps,
        rho_star_raw=rho_star(),
        rho_star_adjusted=rho_star(adjusted=True, d=cfg.d),
        crossings=crossing_points(cfg.grid, curve_a, curve_b),
    )
    json_path = write_json(os.path.join(cfg.out, f"{name}_sweep.json"), doc)
    return csv_path, json_path, (curve_a, curve_b)


def run_shape_sweep(cfg: ExperimentConfig):
    """Balanced-vs-imbalanced hyperedge shape competition at one order."""
    k = cfg.shape_order
    return _run_competition(
        cfg, "shape", lambda rho, seed: shape_experiment_spec(cfg.n, cfg.d, rho, order=k, seed=seed),
        partial(switching_rho, f"shape{k}"), {"order": k},
    )


def run_order_sweep(cfg: ExperimentConfig):
    """Low-order vs high-order boundary hyperedge competition."""
    orders = {"low_order": cfg.low_order, "high_order": cfg.high_order}
    return _run_competition(
        cfg, "order", lambda rho, seed: order_experiment_spec(cfg.n, cfg.d, rho, seed=seed, **orders),
        partial(switching_rho, "order", **orders), orders,
    )


def run_spectrum(cfg: ExperimentConfig):
    """Dump non-backtracking eigenvalues and Bethe Hessian spectra vs eta."""
    if cfg.n > 300:
        raise ExperimentError("spectrum dumps are limited to n <= 300")
    spec = SymmetricHsbmSpec(
        n=cfg.n, q=cfg.q, orders=cfg.orders, d=cfg.d,
        eps=cfg.grid[0] if cfg.grid else 0.1, seed=cfg.seed,
    )
    h, _ = sample_symmetric(spec)
    radius = bulk_radius(h)
    nb = nonbacktracking_matrix(h, guard=50000)
    w = np.linalg.eigvals(nb.matrix.toarray())
    etas = cfg.eta_grid or tuple(np.linspace(1.05, 1.5 * radius, 10))
    bh_spectra = []
    for eta in etas:
        B = bethe_hessian(h, float(eta))
        bh_spectra.append(sorted(float(x) for x in np.linalg.eigvalsh(B.matrix.toarray())))
    doc = {
        "experiment": "spectrum",
        "n": cfg.n,
        "bulk_radius": radius,
        "nb_eigenvalues": [[float(z.real), float(z.imag)] for z in w],
        "eta_grid": [float(e) for e in etas],
        "bh_eigenvalues": bh_spectra,
    }
    return write_json(os.path.join(cfg.out, "spectrum.json"), doc)


def run(cfg: ExperimentConfig):
    runner = {
        "eps-sweep": run_eps_sweep,
        "shape-sweep": run_shape_sweep,
        "order-sweep": run_order_sweep,
        "spectrum": run_spectrum,
    }.get(cfg.experiment)
    if runner is None:
        raise ExperimentError(f"unknown experiment {cfg.experiment!r}")
    return runner(cfg)
