"""A golden corpus of ``run_test`` reports, in ``golden/run_test.json``.

Every (estimator, statistic, weighting, null_draws) combination runs on
one 40 x 6 dataset with 301 replicates, for six hypotheses: two
partitions, their membership designs, the vertex-incidence design and a
seeded general 15 x 3 design.  Each runs with the default draw blocks
and with 3-row blocks (101 blocks of normals, 301 of bootstrap
multipliers).  An entry holds the report's ``to_dict()`` with every
float as its ``repr``, the end state of the test's generator, or the
type and text of the error that refused the combination.

The test rebuilds every entry with draws inline and on helper threads.
Where the platform record (Python, NumPy, SciPy, their BLAS builds,
machine and CPU) matches the committed one, every entry must be equal;
elsewhere every field but a float must be equal, and each float must
agree within ``FLOAT_RTOL`` relative to its size (``FLOAT_ATOL`` near
zero).  A p-value is a float here, but one Monte Carlo hit more or less
moves it by 1/301, far beyond that bound: the hit counts stay exact.

Regenerate the corpus, as its own stated change, with

    PYTHONPATH=src python tests/test_golden.py

``golden/cli`` pins the files that ``kstruct test --out`` writes (the
report JSON and the ``_tau.csv`` and ``_theta.csv`` matrices) for the
runs of ``CLI_RUNS`` on the headed ``data.csv`` there, against its
``partition.json`` and ``design.csv``.  They are compared byte for byte
where the platform record matches the corpus's, and elsewhere as the
corpus is.  Each pinned file is what ``kstruct test`` wrote from
``golden/cli`` with the run's arguments and ``--out <name>.json``.
"""

import contextlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

import kstruct.testing as kt
from kstruct.indexing import (
    DesignMatrix,
    Partition,
    block_membership_matrix,
    vertex_incidence_design,
)
from kstruct.cli import main as cli_main
from kstruct.testing import TestOptions, run_test

CORPUS = Path(__file__).parent / "golden" / "run_test.json"
CLI = Path(__file__).parent / "golden" / "cli"
# the pinned `kstruct test` runs, by report name; file names are in CLI
CLI_RUNS = {
    "partition_test": ["--hypothesis", "partition", "--hypothesis-file", "partition.json",
                       "--statistic", "max", "--seed", "5", "--replicates", "200"],
    "design_test": ["--hypothesis", "design", "--hypothesis-file", "design.csv",
                    "--estimator", "jackknife", "--weighting", "identity", "--seed", "6",
                    "--replicates", "200"],
}
FLOAT_RTOL = 1e-8
FLOAT_ATOL = 1e-12
REPLICATES = 301
# entries of a draw block for each block setting: None is the default;
# 3 rows of p = 15 pairs give 101 blocks of normals for 301 replicates
BLOCKS = {"default": None, "3-row": 3 * 15}


def dataset():
    """40 x 6: a common factor, and a second one on variables 1-3."""
    rng = np.random.default_rng(4201)
    X = rng.standard_normal((40, 6)) + 0.6 * rng.standard_normal((40, 1))
    X[:, :3] += 0.5 * rng.standard_normal((40, 1))
    return X


def hypotheses():
    one, three = Partition.exchangeable(6), Partition(6, ((1, 2, 3), (4, 5), (6,)))
    general = np.random.default_rng(4211).standard_normal((15, 3))
    return {
        "one-group": one,
        "three-group": three,
        "one-group membership": block_membership_matrix(one),
        "three-group membership": block_membership_matrix(three),
        "vertex-incidence": vertex_incidence_design(6),
        "general": DesignMatrix(general),
    }


def routes():
    return [(e, s, w, nd) for e in ("structured", "jackknife") for s in ("euclidean", "max")
            for w in ("identity", "sigma") for nd in ("auto", "gaussian", "bootstrap")]


def platform_record():
    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "machine": platform.machine(),
        "cpu": cpu,
    }


@contextlib.contextmanager
def _patched(second_cpu, entries, made):
    """Draws inline or on helper threads, blocks of ``entries`` normals
    (the default for None), and every generator made appended to ``made``."""
    saved = kt._second_cpu, kt._DRAW_BLOCK_ENTRIES, np.random.default_rng
    default_rng = np.random.default_rng

    def recorded(seed=None):
        made.append(default_rng(seed))
        return made[-1]

    kt._second_cpu = lambda: second_cpu
    kt._DRAW_BLOCK_ENTRIES = saved[1] if entries is None else entries
    np.random.default_rng = recorded
    try:
        yield
    finally:
        kt._second_cpu, kt._DRAW_BLOCK_ENTRIES, np.random.default_rng = saved


def build(second_cpu):
    """Every entry of the corpus, unencoded, in corpus order."""
    X, out = dataset(), []
    for blocks, entries in BLOCKS.items():
        for name, hypothesis in hypotheses().items():
            for route in routes():
                made = []
                opts = TestOptions(estimator=route[0], statistic=route[1], weighting=route[2],
                                   null_draws=route[3], replicates=REPLICATES, seed=13)
                entry = {"hypothesis": name, "blocks": blocks, "route": list(route)}
                with _patched(second_cpu, entries, made):
                    try:
                        entry["report"] = run_test(X, hypothesis, opts).to_dict()
                    except (ValueError, TypeError, ArithmeticError) as exc:
                        entry["error"] = {"type": type(exc).__name__, "text": str(exc)}
                entry["rng_state"] = made[0].bit_generator.state if made else None
                out.append(entry)
    return out


def encode(x):
    """``x`` for JSON, every float as its repr."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, np.integer):
        return int(x)
    return x


def _agree(got, want, where):
    """Every field of the unencoded ``got`` equal to the encoded ``want``,
    floats within the stated bound."""
    if isinstance(got, (float, np.floating)):
        w = float(want)
        assert abs(float(got) - w) <= max(FLOAT_RTOL * abs(w), FLOAT_ATOL), where
    elif isinstance(got, dict):
        assert sorted(got) == sorted(want), where
        for k in got:
            _agree(got[k], want[k], "%s.%s" % (where, k))
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _agree(g, w, "%s[%d]" % (where, i))
    else:
        assert encode(got) == want, where


def test_run_test_reports_equal_the_golden_corpus():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    exact = corpus["platform"] == platform_record()
    for second_cpu in (False, True):
        got = build(second_cpu)
        assert len(got) == len(corpus["entries"])
        for entry, want in zip(got, corpus["entries"]):
            where = "%s, %s blocks, %s, threads %s" % (
                entry["hypothesis"], entry["blocks"], "/".join(entry["route"]), second_cpu)
            _agree(entry, want, where)
            if exact:
                assert encode(entry) == want, where


def test_golden_partition_jackknife_entries_equal_their_designs():
    # the jackknife tests a partition as its membership design
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]
    key = {(e["hypothesis"], e["blocks"], tuple(e["route"])): e for e in entries}
    partitions = [e for e in entries
                  if e["hypothesis"] in ("one-group", "three-group") and e["route"][0] == "jackknife"]
    assert len(partitions) == 2 * 2 * 12
    for e in partitions:
        design = key[e["hypothesis"] + " membership", e["blocks"], tuple(e["route"])]
        assert dict(e, hypothesis=None) == dict(design, hypothesis=None)


def test_cli_test_outputs_equal_the_pinned_files(tmp_path, capsys):
    exact = json.loads(CORPUS.read_text(encoding="utf-8"))["platform"] == platform_record()
    for name, args in CLI_RUNS.items():
        args = [str(CLI / a) if a.endswith((".json", ".csv")) else a for a in args]
        out = tmp_path / (name + ".json")
        assert cli_main(["test", "--data", str(CLI / "data.csv"), *args, "--out", str(out)]) == 0
        for suffix in (".json", "_tau.csv", "_theta.csv"):
            got, want = tmp_path / (name + suffix), CLI / (name + suffix)
            if exact:
                assert got.read_bytes() == want.read_bytes(), want.name
            else:
                _agree(_cli_output(got), encode(_cli_output(want)), want.name)
    capsys.readouterr()


def _cli_output(path):
    """A report JSON as its dict, a matrix CSV as its list of rows."""
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    return np.loadtxt(path, delimiter=",").tolist()


def main():
    entries = encode(build(False))
    CORPUS.parent.mkdir(exist_ok=True)
    # one entry a line, so that a regenerated corpus diffs entry by entry
    CORPUS.write_text('{"platform": %s,\n"entries": [\n%s\n]}\n' % (
        json.dumps(platform_record()), ",\n".join(map(json.dumps, entries))), encoding="utf-8")
    print("wrote %d entries to %s" % (len(entries), CORPUS), file=sys.stderr)


if __name__ == "__main__":
    main()
