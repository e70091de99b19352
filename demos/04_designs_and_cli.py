"""Partition hypotheses, design matrices, and the command-line interface.

Linear structure need not mean "all correlations equal": any design
matrix B with tau = B beta is testable.  This script builds the natural
designs for a grouped set of variables, inspects their condition checks,
and finishes by driving the CLI in-process on a temporary CSV file.

Run:  python3 demos/04_designs_and_cli.py
"""

import json
import os
import tempfile

import numpy as np

from kstruct import (
    KendallSample,
    Partition,
    ScenarioConfig,
    block_membership_matrix,
    build_tau_matrix,
    check_design_conditions,
    diagonal_free_membership_matrix,
    gamma_projection,
    sample_gaussian_with_tau,
    vertex_incidence_design,
)
from kstruct.cli import main

# --- designs for 6 variables in groups {1,2,3 | 4,5 | 6} -------------------

part = Partition(6, ((1, 2, 3), (4, 5), (6,)))

membership = block_membership_matrix(part)
diag_free = diagonal_free_membership_matrix(part)
vertex = vertex_incidence_design(6)

for name, design in (
    ("block membership", membership),
    ("diagonal-free", diag_free),
    ("vertex incidence", vertex),
):
    info = check_design_conditions(design)
    print(
        "%-17s: p=%2d  L=%2d  one nonzero per row: %s"
        % (name, design.p, design.L, info["one_nonzero_per_row"])
    )
print()

# --- fitting under a partition hypothesis ----------------------------------

cfg = ScenarioConfig(
    n=300, d=6, structure="block", sizes=(3, 2, 1), hypothesis_groups=part.groups
)
X = sample_gaussian_with_tau(build_tau_matrix(cfg), 300, np.random.default_rng(12))
tau = KendallSample(X).tau
theta = gamma_projection(membership).apply(tau)
print("raw estimates   :", np.round(tau, 3))
print("fitted by class :", np.round(theta, 3))
print()

# --- the same test through the CLI ------------------------------------------

# the directory and its files are removed when the demo ends; the CLI
# runs inside it on relative names, so what it prints is the same on
# every run
home = os.getcwd()
with tempfile.TemporaryDirectory(prefix="kstruct-demo-") as workdir:
    os.chdir(workdir)
    try:
        np.savetxt("data.csv", X, delimiter=",", fmt="%.17g")
        with open("partition.json", "w") as fh:
            json.dump({"d": 6, "groups": [list(g) for g in part.groups]}, fh)

        code = main(
            [
                "test",
                "--data", "data.csv",
                "--hypothesis", "partition",
                "--hypothesis-file", "partition.json",
                "--statistic", "euclidean",
                "--weighting", "sigma",
                "--estimator", "structured",
                "--seed", "99",
                "--out", "report.json",
            ]
        )
        print("CLI exit code:", code)
        with open("report.json") as fh:
            report = json.load(fh)
    finally:
        os.chdir(home)
    print("p-value from the JSON report: %.3f" % report["p_value"])
    print("fitted matrix written next to it: report_theta.csv")
