"""Generated CLI inputs either run or exit 2 with one error line.

`cli.main` is driven in-process with model specs, experiment configs (n <= 60,
one repetition) and `bp`/`cluster` flag values, each mostly valid and
sometimes with a key dropped, an extra key, or a value of the wrong JSON kind
(null, a bool, a float for an int, a string for a list).  Every input must
either exit 0, or exit 2 with one `hyperbethe <command>: error:` line on
stderr, nothing on stdout and no output directory.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, given, settings
from hypothesis import strategies as st

from hyperbethe import SymmetricHsbmSpec, sample_symmetric, save_hyperedge_list, save_partition
from hyperbethe.cli import main as cli_main

# a value of the wrong JSON kind or out of range for any key
WRONG = st.sampled_from([None, True, False, 1.5, 0, -1, 100, "3", "23", "x", [], [2.5], [0.1, 0.2], {"x": 1}])
EXTRA_KEYS = ["nn", "mode", "q", "orders", "reps", "methods", "bp", "shape_order", "low_order", "patterns", "eps"]


@st.composite
def mutated(draw, docs):
    """A valid doc, or the doc with one key dropped, one wrong value, or one extra key."""
    doc = dict(draw(docs))
    how = draw(st.sampled_from(["keep", "keep", "keep", "drop", "wrong", "extra"]))
    if how == "drop" and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "wrong" and doc:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(WRONG)
    elif how == "extra":
        doc[draw(st.sampled_from(EXTRA_KEYS))] = draw(st.one_of(WRONG, st.integers(0, 5)))
    return doc


def mostly(valid, bad):
    """Seven times in eight a valid value, else an invalid one of the same type."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else valid)


ORDERS = st.lists(st.integers(2, 3), min_size=1, max_size=2)
SEED = {"seed": st.integers(0, 50)}
GRID = st.lists(st.floats(0, 1), min_size=1, max_size=2)
PAIR = st.one_of(
    st.fixed_dictionaries({"d": st.floats(1, 12), "eps": st.floats(0, 1)}),
    st.fixed_dictionaries({"c_in": st.floats(1, 30), "c_out": st.floats(0, 5)}),
)
SYMMETRIC = st.builds(
    lambda base, pair: {**base, **pair},
    st.fixed_dictionaries({"n": st.integers(24, 60), "q": st.integers(2, 3), "orders": ORDERS}, optional=SEED),
    PAIR,
)


@st.composite
def pattern(draw, q):
    members = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=4))
    composition = {str(c): members.count(c) for c in sorted(set(members))}
    return {"order": len(members), "composition": composition, "rate": draw(st.floats(0, 60))}


PATTERNS = st.integers(2, 4).flatmap(lambda q: st.fixed_dictionaries(
    {"n": st.integers(24, 60), "q": st.just(q), "patterns": st.lists(mutated(pattern(q)), max_size=3)}, optional=SEED
))
MODEL = st.one_of(mutated(SYMMETRIC), mutated(PATTERNS), st.lists(st.integers(0, 3), max_size=2))

SWEEP = {"n": st.integers(24, 60), "reps": st.just(1)}
BP_BLOCK = st.fixed_dictionaries({}, optional={
    "max_sweeps": st.integers(1, 30),
    "tol": st.floats(1e-6, 1e-2),
    "damping": st.floats(0, 0.9),
    "seed": st.integers(0, 5),
})
EXPERIMENT = st.one_of(
    st.fixed_dictionaries({
        "experiment": st.just("eps-sweep"), **SWEEP, "q": st.integers(2, 3), "orders": ORDERS,
        "d": st.floats(2, 12), "grid": GRID,
    }, optional={"methods": st.lists(st.sampled_from(["bh", "bp"]), min_size=1, max_size=2),
                 "bp": mutated(BP_BLOCK), **SEED}),
    st.fixed_dictionaries({
        "experiment": st.just("shape-sweep"), **SWEEP, "d": st.floats(1, 15), "shape_order": st.integers(4, 5),
        "grid": st.lists(st.floats(0, 2.5), min_size=1, max_size=2),
    }, optional=SEED),
    st.fixed_dictionaries({
        "experiment": st.just("order-sweep"), **SWEEP, "d": st.floats(1, 30), "low_order": st.just(2),
        "high_order": st.integers(3, 4), "grid": st.lists(st.floats(0, 2.5), min_size=1, max_size=2),
    }, optional=SEED),
    # the spectrum's dense non-backtracking solve grows with the incidence count, so it stays smaller
    st.fixed_dictionaries({
        "experiment": st.just("spectrum"), "n": st.integers(12, 24), "q": st.integers(2, 3), "orders": ORDERS,
        "d": st.floats(1, 8), "grid": st.lists(st.floats(0, 1), min_size=1, max_size=1),
    }, optional=SEED),
    st.fixed_dictionaries({"experiment": st.sampled_from(["nope", 3])}, optional={"grid": st.just([0.1])}),
)


def flags(required=False, **options):
    """--name=value flags, each present or not (all present if required); "=" lets a negative value through."""
    return st.fixed_dictionaries(options if required else {}, optional=None if required else options).map(
        lambda given: [f"--{name.replace('_', '-')}={value!r}" for name, value in given.items()]
    )


SEED_FLAG = flags(seed=mostly(st.integers(0, 50), st.just(-1)))
BP_FLAGS = st.tuples(
    mostly(st.integers(2, 3), st.integers(-1, 1)).map(lambda q: [f"--q={q}"]),
    st.one_of(
        flags(True, d=mostly(st.floats(1, 12), st.floats(-1, 0)), eps=mostly(st.floats(0, 1), st.just(-0.1))),
        flags(True, c_in=mostly(st.floats(1, 30), st.just(-1.0)), c_out=mostly(st.floats(0, 5), st.just(-1.0))),
        flags(eps=st.floats(0, 1)),
    ),
    flags(
        max_sweeps=mostly(st.integers(1, 30), st.integers(-1, 0)),
        tol=mostly(st.floats(1e-6, 1e-2), st.floats(-1e-3, 0)),
        damping=mostly(st.floats(0, 0.9), st.sampled_from([-0.5, 1.0, 1.5])),
    ),
    SEED_FLAG,
).map(lambda parts: sum(parts, []))
CLUSTER_FLAGS = st.tuples(
    flags(
        q=mostly(st.integers(1, 4), st.sampled_from([-1, 0, 61])),
        eta=mostly(st.floats(1.5, 5), st.sampled_from([-2.0, -1.0, 1.0])),
        kmeans_restarts=mostly(st.integers(1, 4), st.integers(-1, 0)),
    ),
    SEED_FLAG,
    st.lists(st.just("--labels=LABELS"), max_size=1),
).map(lambda parts: sum(parts, []))


def exits_0_or_2(argv, config=None):
    """Run argv in a fresh directory; EDGES and LABELS name a small planted instance."""
    with tempfile.TemporaryDirectory() as tmp:
        h, planted = sample_symmetric(SymmetricHsbmSpec(n=60, q=2, orders=(2, 3), d=8.0, eps=0.1, seed=1))
        paths = {"EDGES": os.path.join(tmp, "edges.txt"), "LABELS": os.path.join(tmp, "labels.txt")}
        save_hyperedge_list(h, paths["EDGES"])
        save_partition(planted, paths["LABELS"])
        argv = [a.replace("EDGES", paths["EDGES"]).replace("LABELS", paths["LABELS"]) for a in argv]
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = cli_main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
        event(f"exit {code}")
        if code == 0:
            return
        assert code == 2 and stdout.getvalue() == "", (code, stdout.getvalue())
        err = stderr.getvalue()
        assert err.startswith(f"hyperbethe {argv[0]}: error: ") and err.count("\n") == 1, err
        assert not os.path.exists(out)


@settings(max_examples=60, deadline=None)
@given(MODEL, SEED_FLAG)
def test_generate(config, seed):
    exits_0_or_2(["generate"] + seed, config)


@settings(max_examples=40, deadline=None)
@given(mutated(EXPERIMENT), SEED_FLAG)
def test_run(config, seed):
    exits_0_or_2(["run"] + seed, config)


@settings(max_examples=30, deadline=None)
@given(BP_FLAGS)
def test_bp(argv):
    exits_0_or_2(["bp", "--input=EDGES"] + argv)


@settings(max_examples=30, deadline=None)
@given(CLUSTER_FLAGS)
def test_cluster(argv):
    exits_0_or_2(["cluster", "--input=EDGES"] + argv)
