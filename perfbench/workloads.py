"""Workload definitions: shapes, routes, input generation, study scenarios.

Inputs are made here with plain NumPy from a seed, so the program under
test only ever receives generated arrays and a later change to kstruct's
own data generator cannot change what the benchmark feeds it.
"""

from dataclasses import dataclass

import numpy as np

import kstruct

# (statistic, weighting); null_draws stays "auto" on every route.  Routes
# that the route table is expected to reject (e.g. euclidean/sigma with
# null_draws="bootstrap", which today silently runs chi-square) are left
# out on purpose.
ROUTES = (
    ("euclidean", "sigma"),
    ("euclidean", "identity"),
    ("max", "sigma"),
    ("max", "identity"),
)
ROUTE_NAMES = tuple("%s-%s" % r for r in ROUTES)

# seed of the fixed inputs whose outputs are compared with reference/
REFERENCE_SEED = 20200720
STUDY_ALPHA = 0.05
WORKLOAD_NAMES = ("exch-kernel", "dense-d60", "study-small")


@dataclass(frozen=True)
class Call:
    """One run_test call of a pass: shape, hypothesis and route."""

    n: int
    d: int
    hypothesis: str  # "exchangeable", "partition" or "design"
    route: tuple

    @property
    def estimator(self):
        return "jackknife" if self.hypothesis == "design" else "structured"

    @property
    def route_name(self):
        return "%s-%s" % self.route


def _grid(shapes, hypotheses):
    return tuple(
        Call(n, d, hyp, route)
        for (n, d), hyp in zip(shapes, hypotheses)
        for route in ROUTES
    )


# calls of one pass and the Monte Carlo replicates per call, by size;
# the full sizes are the benchmark, the smoke sizes only exercise the code
PASSES = {
    ("exch-kernel", "full"): (
        _grid([(400, 40), (200, 100)], ["exchangeable"] * 2), 5000),
    ("exch-kernel", "smoke"): (
        _grid([(60, 6), (40, 8)], ["exchangeable"] * 2), 200),
    ("dense-d60", "full"): (
        _grid([(120, 60), (120, 60)], ["partition", "design"]), 5000),
    ("dense-d60", "smoke"): (
        _grid([(40, 9), (40, 9)], ["partition", "design"]), 200),
}

# within- and between-group Kendall values of the block-structured data,
# base - step * |g - h| for groups g, h (the simulation module's default)
_BLOCK_BASE = 0.4
_BLOCK_STEP = 0.15
_EXCH_TAU = 0.3


def three_groups(d):
    """Partition of 1..d into three equal consecutive groups."""
    k = d // 3
    return kstruct.Partition(
        d, tuple(tuple(range(g * k + 1, (g + 1) * k + 1)) for g in range(3))
    )


def hypotheses(calls):
    """The hypothesis object of every distinct (d, kind) in a pass."""
    out = {}
    for c in calls:
        key = (c.d, c.hypothesis)
        if key in out:
            continue
        if c.hypothesis == "exchangeable":
            out[key] = kstruct.Partition.exchangeable(c.d)
        elif c.hypothesis == "partition":
            out[key] = three_groups(c.d)
        else:
            out[key] = kstruct.block_membership_matrix(three_groups(c.d))
    return out


def _pearson_factor(d):
    # Cholesky factor of the normal correlation matrix whose Kendall matrix
    # is the three-block target (rho = sin(pi tau / 2))
    g = np.repeat(np.arange(3), d // 3)
    T = _BLOCK_BASE - _BLOCK_STEP * np.abs(g[:, None] - g[None, :])
    R = np.sin(np.pi * T / 2.0)
    np.fill_diagonal(R, 1.0)
    return np.linalg.cholesky(R)


class InputMaker:
    """Seeded data and test seeds for the calls of a pass."""

    def __init__(self, calls):
        self._factors = {
            c.d: _pearson_factor(c.d) for c in calls if c.hypothesis != "exchangeable"
        }

    def make(self, call, seed, pass_index, call_index):
        """(data, test seed) of one call; equal arguments give equal inputs."""
        data_seq, test_seq = np.random.SeedSequence(
            seed, spawn_key=(pass_index, call_index)
        ).spawn(2)
        rng = np.random.default_rng(data_seq)
        if call.hypothesis == "exchangeable":
            rho = np.sin(np.pi * _EXCH_TAU / 2.0)
            X = np.sqrt(rho) * rng.standard_normal((call.n, 1)) + np.sqrt(
                1.0 - rho
            ) * rng.standard_normal((call.n, call.d))
        else:
            X = rng.standard_normal((call.n, call.d)) @ self._factors[call.d].T
        return X, int(test_seq.generate_state(1, np.uint32)[0])


def options(call, test_seed, replicates):
    statistic, weighting = call.route
    return kstruct.TestOptions(
        statistic=statistic,
        weighting=weighting,
        estimator=call.estimator,
        replicates=replicates,
        seed=test_seed,
    )


# ---------------------------------------------------------------------------
# study-small

STUDY_REPLICATES = 2000
# shards pick the repetitions a run_study call covers, so the configured
# count is only an upper bound
_STUDY_REPETITIONS = 10**7


def study_scenarios():
    """The three desk-scale scenarios of study-small."""
    structured = tuple(
        kstruct.TestOptions(
            statistic=s, weighting=w, estimator="structured",
            replicates=STUDY_REPLICATES,
        )
        for s, w in ROUTES
    )
    jackknife = tuple(
        kstruct.TestOptions(
            statistic=s, weighting=w, estimator="jackknife",
            replicates=STUDY_REPLICATES,
        )
        for s, w in (("euclidean", "sigma"), ("max", "identity"))
    )
    common = dict(repetitions=_STUDY_REPETITIONS, alpha=STUDY_ALPHA)
    return [
        kstruct.ScenarioConfig(
            n=100, d=5, tau=_EXCH_TAU, tests=structured,
            label="exchangeable-null", **common,
        ),
        kstruct.ScenarioConfig(
            n=150, d=10, tau=_EXCH_TAU, departure="single", delta=0.2,
            tests=structured, label="single-departure", **common,
        ),
        kstruct.ScenarioConfig(
            n=100, d=6, structure="block", sizes=(2, 2, 2),
            base=_BLOCK_BASE, step=_BLOCK_STEP,
            hypothesis_groups=((1, 2), (3, 4), (5, 6)),
            tests=structured + jackknife, label="three-block", **common,
        ),
    ]


def study_cell(n, d, options):
    """Key of a study cell, known to a call from its data shape and options;
    no two cells of study_scenarios share one."""
    return (n, d, options.statistic, options.weighting, options.estimator)


def study_route_names(scenarios):
    """Route name of every study cell."""
    return {
        study_cell(sc.n, sc.d, t): "%s-%s" % (t.statistic, t.weighting)
        for sc in scenarios
        for t in sc.tests
    }


# Source run in a fresh interpreter to time set-up: importing kstruct and
# building what a workload builds before its first call.
SETUP_SOURCE = """
import time
t0 = time.perf_counter()
import kstruct
import workloads
name, size = %r, %r
if name == "study-small":
    for sc in workloads.study_scenarios():
        sc.validate()
else:
    calls, _ = workloads.PASSES[(name, size)]
    workloads.hypotheses(calls)
print(repr(time.perf_counter() - t0))
"""
