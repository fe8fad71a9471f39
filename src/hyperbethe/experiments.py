"""Experiment orchestration: parameter sweeps and spectrum dumps.

Every runner is deterministic for a fixed config: per-run seeds derive from
(master seed, grid index, repetition) and outputs are written as CSV/JSON
with stable formatting, so repeated runs produce byte-identical files.

All sweeps share one grid x reps loop.  A repetition in which spectral
detection finds no structure (a SpectralError) scores 0 on every column the
spectral partition feeds, and means always run over all repetitions; any
other exception, EigenConvergenceError included, fails the sweep.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bp import BpConfig, bp_run
from .detectability import MERGE_01_23, MERGE_02_13, _tradeoff, snr_report, switching_rho
from .hsbm import SymmetricHsbmSpec, read_json, sample_symmetric
from .hypergraph import Partition
from .metrics import ami
from .nonbacktracking import nonbacktracking_matrix
from .spectral import EigenConvergenceError, SpectralError, bethe_hessian, bulk_radius, spectral_cluster


class ExperimentError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str  # eps-sweep | shape-sweep | order-sweep | spectrum
    n: int = 3000
    q: int = 2
    orders: tuple[int, ...] = (2, 3)
    d: float = 10.0
    grid: tuple[float, ...] = ()  # spectrum: its one eps
    reps: int = 20
    methods: tuple[str, ...] = ("bh",)
    seed: int = 0
    out: str = "results"
    shape_order: int = 4
    low_order: int = 2
    high_order: int = 3
    bp: BpConfig = BpConfig()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ExperimentError(f"unknown experiment {self.experiment!r}")
        if self.reps < 1:
            raise ExperimentError("repetitions must be >= 1")
        if not self.grid or self.experiment == "spectrum" and len(self.grid) > 1:
            raise ExperimentError(f"{self.experiment} grid {list(self.grid)} must be nonempty, one value for spectrum")
        if self.experiment == "eps-sweep" and not (self.methods and set(self.methods) <= {"bh", "bp"}):
            raise ExperimentError(f"eps-sweep methods {self.methods} must be a nonempty subset of ('bh', 'bp')")
        if self.bp.seed != BpConfig.seed:
            raise ExperimentError("key 'seed' in \"bp\" has no effect: BP is seeded per repetition")

    @classmethod
    def from_json(cls, doc):
        if isinstance(doc, str):
            doc = json.loads(doc)
        cfg = read_json(cls, doc, ExperimentError)
        reads = EXPERIMENTS[cfg.experiment][1]
        for key in doc:
            if key not in reads and key != "experiment":
                raise ExperimentError(f"unknown key {key!r}; {cfg.experiment} takes {', '.join(reads)}")
        return cfg


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
    """AMI of the Bethe Hessian partition against each truth; no structure scores 0, a failed eigensolve raises."""
    try:
        part = spectral_cluster(h, num_communities=q).partition
    except EigenConvergenceError:
        raise
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
    estimates the community count from the negative eigenvalues.  Finding
    no structure scores 0; BP that stops at its sweep cap still scores; any
    other error, a failed eigensolve included, fails the sweep.
    """

    def score(eps, seed):
        spec = SymmetricHsbmSpec(n=cfg.n, q=cfg.q, orders=cfg.orders, d=cfg.d, eps=eps, seed=seed)
        h, planted = sample_symmetric(spec)
        out = {}
        if "bh" in cfg.methods:
            out["bh"] = _bh_scores(h, None, planted)[0]
        if "bp" in cfg.methods:
            res = bp_run(h, cfg.q, spec.rates(), replace(cfg.bp, seed=seed))
            out["bp"] = ami(res.partition, planted)
        return out

    report = snr_report(cfg.q, cfg.orders, d=cfg.d, eps=0.0)  # first: fails before any write
    csv_path, means = _sweep(cfg, "eps", "eps", ("bh", "bp"), score)
    curves = {m: means[m] for m in cfg.methods}
    doc = {
        "experiment": "eps-sweep",
        "n": cfg.n,
        "q": cfg.q,
        "orders": list(cfg.orders),
        "d": cfg.d,
        "grid": list(cfg.grid),
        "reps": cfg.reps,
        "eps_bh_star": report["eps_bh"],
        "eps_bp_star": report["eps_bp"],
        "transition_bh": transition_point(cfg.grid, curves["bh"]) if "bh" in curves else None,
        "transition_bp": transition_point(cfg.grid, curves["bp"]) if "bp" in curves else None,
    }
    json_path = write_json(os.path.join(cfg.out, "eps_sweep.json"), doc)
    return csv_path, json_path, curves


def _run_competition(cfg: ExperimentConfig, kind):
    """Shared runner of the shape and order sweeps: detect 2 communities and
    score against both coarse plantings; writes <name>_sweep.csv/.json.

    kind names the trade-off experiment that detectability defines; only the
    order kind reads the config's order pair.
    """
    pair = {"low_order": cfg.low_order, "high_order": cfg.high_order}
    (k, _), raw, build = _tradeoff(kind, **pair)  # first: a bad kind fails before any write
    predicted = dict(rho_star_raw=raw, rho_star_adjusted=switching_rho(kind, **pair, adjusted=True, d=cfg.d))
    name, orders = ("order", pair) if kind == "order" else ("shape", {"order": k})

    def score(rho, seed):
        h, planted = sample_symmetric(build(cfg.n, cfg.d, rho, seed=seed))
        # planted label c is on side 1 of a coarse planting when c is in its second group
        truths = [Partition(np.isin(planted.labels, groups[1]), 2) for groups in (MERGE_01_23, MERGE_02_13)]
        return dict(zip(("0123", "0213"), _bh_scores(h, 2, *truths)))

    csv_path, curves = _sweep(cfg, name, "rho", ("0123", "0213"), score)
    curve_a, curve_b = curves["0123"], curves["0213"]
    doc = dict(
        orders,
        **predicted,
        experiment=f"{name}-sweep",
        n=cfg.n,
        d=cfg.d,
        grid=list(cfg.grid),
        reps=cfg.reps,
        crossings=crossing_points(cfg.grid, curve_a, curve_b),
    )
    json_path = write_json(os.path.join(cfg.out, f"{name}_sweep.json"), doc)
    return csv_path, json_path, (curve_a, curve_b)


def run_shape_sweep(cfg: ExperimentConfig):
    """Balanced-vs-imbalanced hyperedge shape competition at one order."""
    return _run_competition(cfg, f"shape{cfg.shape_order}")


def run_order_sweep(cfg: ExperimentConfig):
    """Low-order vs high-order boundary hyperedge competition."""
    return _run_competition(cfg, "order")


def run_spectrum(cfg: ExperimentConfig):
    """Dump non-backtracking eigenvalues and Bethe Hessian spectra vs eta."""
    if cfg.n > 300:
        raise ExperimentError("spectrum dumps are limited to n <= 300")
    spec = SymmetricHsbmSpec(n=cfg.n, q=cfg.q, orders=cfg.orders, d=cfg.d, eps=cfg.grid[0], seed=cfg.seed)
    h, _ = sample_symmetric(spec)
    radius = bulk_radius(h)
    nb = nonbacktracking_matrix(h, guard=50000)
    w = np.linalg.eigvals(nb.matrix.toarray())
    etas = np.linspace(1.05, 1.5 * radius, 10)
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


# each experiment's runner and the config keys besides "experiment" that it reads
EXPERIMENTS = {
    "eps-sweep": (run_eps_sweep, ("n", "q", "orders", "d", "grid", "reps", "methods", "bp", "seed", "out")),
    "shape-sweep": (run_shape_sweep, ("n", "d", "grid", "reps", "shape_order", "seed", "out")),
    "order-sweep": (run_order_sweep, ("n", "d", "grid", "reps", "low_order", "high_order", "seed", "out")),
    "spectrum": (run_spectrum, ("n", "q", "orders", "d", "grid", "seed", "out")),
}


def run(cfg: ExperimentConfig):
    return EXPERIMENTS[cfg.experiment][0](cfg)
