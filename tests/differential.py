"""Generated near-threshold instances for the filtered negative-eigenvalue count, checked against dense solves.

Each instance is a symmetric HSBM sampled near the Bethe Hessian threshold:
eps = eps_bh x U(0.7, 1.3) (capped at 1), an order set drawn from a given
list, by default (2), (3), (2, 3), (2, 4) and (3, 4), d from U(3, 15), and q
and n uniform over given ranges whose n lie above DENSE_CUTOFF, so the count
takes the filtered Lanczos path.
On the operator at the bulk radius, `check` compares

- the count, len(_negative_eigenpairs(B)[0]), with the number of eigvalsh
  eigenvalues below B.threshold;
- every returned pair's residual with the guard's EIG_TOL * ||B||_inf;
- lowest_eigenpairs(B, q) with the q lowest dense eigenvalues, within 1e-6.

tests/test_spectral.py runs a few instances on the default ranges and a few
single-order ones with q = 2-3.  Run as a script for a longer sample, from
the repository root:

    PYTHONPATH=src python tests/differential.py --instances 1000

and for the regime of criterion c01, small q at larger n, where most final
loose batches have a Ritz value of p(B) within 0.02 of 1:

    PYTHONPATH=src python tests/differential.py --seed 13 --q 2 3 --n 1500 3000 --instances 150

It prints each instance that fails a check or raises, then the number of
misses (a count that differs from the dense one), of other faults and of
raises, how many instances ran a filtered solve at EIG_TOL, and the total
time spent in _negative_eigenpairs.
"""

import argparse
import sys
import time

import numpy as np

from hyperbethe import (
    SymmetricHsbmSpec,
    bethe_hessian,
    bulk_radius,
    critical_epsilon,
    lowest_eigenpairs,
    sample_symmetric,
)
from hyperbethe import spectral
from hyperbethe.detectability import DetectabilityError

ORDERS = ((2,), (3,), (2, 3), (2, 4), (3, 4))


def near_threshold_specs(count, *, seed=7, q=(4, 10), n=(700, 1500), orders=ORDERS):
    """count SymmetricHsbmSpecs near the Bethe Hessian threshold, drawn from one seeded rng.

    q and n are inclusive ranges, and each spec's order set is drawn from
    orders.  A draw that no eps makes detectable is skipped, so the same
    arguments always give the same specs.
    """
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        qi, size = int(rng.integers(q[0], q[1] + 1)), int(rng.integers(n[0], n[1] + 1))
        order_set, d = orders[rng.integers(len(orders))], float(rng.uniform(3.0, 15.0))
        scale, instance_seed = float(rng.uniform(0.7, 1.3)), int(rng.integers(2**30))
        try:
            eps = min(1.0, scale * critical_epsilon(qi, order_set, d, which="bh"))
        except DetectabilityError:
            continue
        specs.append(SymmetricHsbmSpec(n=size, q=qi, orders=order_set, d=d, eps=eps, seed=instance_seed))
    return specs


def check(spec):
    """(faults, seconds): what the count and the fixed-q solve get wrong on spec, and the count's time.

    faults is empty when all three checks hold; a miss reads "count ...".
    """
    h, _ = sample_symmetric(spec)
    B = bethe_hessian(h, bulk_radius(h))
    assert B.n > spectral.DENSE_CUTOFF, "the generator's n must take the filtered path"
    lam = np.linalg.eigvalsh(B.matrix.toarray())
    start = time.perf_counter()
    w, v = spectral._negative_eigenpairs(B)
    seconds = time.perf_counter() - start
    faults = []
    dense = int(np.sum(lam < B.threshold))
    if len(w) != dense:
        faults.append(f"count {len(w)}, dense {dense}")
    res = np.linalg.norm(B.matrix @ v - v * w, axis=0)
    if not np.all(res <= spectral.EIG_TOL * B.norm):
        faults.append(f"residual {res.max():.3g} over the guard's {spectral.EIG_TOL * B.norm:.3g}")
    fixed, _ = lowest_eigenpairs(B, spec.q)
    gap = np.abs(fixed - lam[: spec.q]).max()
    if not gap <= 1e-6:
        faults.append(f"lowest_eigenpairs off the dense eigenvalues by {gap:.3g}")
    return faults, seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--q", type=int, nargs=2, default=(4, 10), metavar=("LO", "HI"))
    parser.add_argument("--n", type=int, nargs=2, default=(700, 1500), metavar=("LO", "HI"))
    args = parser.parse_args(argv)

    import scipy.sparse.linalg as spla

    eigsh, tight = spla.eigsh, []

    def recorded(*a, **kw):
        if kw.get("which") == "LA" and kw.get("tol") == spectral.EIG_TOL:
            tight.append(1)
        return eigsh(*a, **kw)

    spla.eigsh = recorded
    misses = faults = raises = fell_back = 0
    total = 0.0
    for i, spec in enumerate(near_threshold_specs(args.instances, seed=args.seed, q=args.q, n=args.n)):
        tight.clear()
        try:
            found, seconds = check(spec)
        except spectral.EigenConvergenceError as exc:
            raises += 1
            print(f"{i} {spec}: raised {exc}")
            continue
        total += seconds
        fell_back += bool(tight)
        misses += any(f.startswith("count") for f in found)
        faults += any(not f.startswith("count") for f in found)
        if found:
            print(f"{i} {spec}: {'; '.join(found)}")
    print(
        f"instances {args.instances}  misses {misses}  other faults {faults}  raises {raises}  "
        f"EIG_TOL filtered solve on {fell_back}  count time {total:.2f} s"
    )
    return 1 if misses or faults or raises else 0


if __name__ == "__main__":
    sys.exit(main())
