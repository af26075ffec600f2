"""End-to-end tests: every registered experiment reproduces its claim.

These are the reproduction's acceptance tests — each experiment's
``passed`` flag encodes the corresponding claim of the paper, so a
regression anywhere in the stack (protocol, checker, apps, harness)
surfaces here.
"""

from pathlib import Path

import pytest

from repro.harness.experiments import (
    EXPERIMENTS,
    generate_markdown_report,
    run_experiment,
)

QUICK = [
    "fig1", "fig2", "fig3", "fig5",
    "dictionary", "discard-liveness", "write-behind",
]
HEAVY = [
    "fig4", "solver-table", "solver-convergence",
    "ablation-readonly", "async-solver", "nocache-atomicity",
    "page-granularity", "locality", "latency-blocking",
    "ownership-migration",
]


@pytest.mark.parametrize("name", QUICK)
def test_quick_experiment_passes(name):
    report = run_experiment(name)
    assert report.passed, report.text


@pytest.mark.parametrize("name", HEAVY)
def test_heavy_experiment_passes(name):
    report = run_experiment(name)
    assert report.passed, report.text


def test_registry_covers_every_design_md_experiment():
    assert set(QUICK) | set(HEAVY) == set(EXPERIMENTS)


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("does-not-exist")


def test_reports_have_identities_and_text():
    report = run_experiment("fig1")
    assert report.exp_id == "E1"
    assert report.title
    assert "PASS" in str(report)


def test_solver_table_data_shape():
    report = run_experiment("solver-table")
    rows = report.data["rows"]
    assert all(row["causal"] == row["paper_causal"] for row in rows)
    assert all(row["atomic"] >= row["paper_atomic"] for row in rows)


def test_enhancement_data_magnitudes():
    """E14/E15/E17 claims beyond each report's own ``passed`` ordering."""
    colds = [row["cold"] for row in run_experiment("page-granularity").data["rows"]]
    assert all(b < a for a, b in zip(colds, colds[1:]))  # bigger pages, less traffic
    assert run_experiment("locality").data["95/5"]["hit_rate"] > 0.8
    migration = run_experiment("ownership-migration").data
    # Migration's write-local payoff is large...
    assert migration["li"]["local"] * 3 <= migration["atomic"]["local"]
    # ...and its ping-pong penalty is real.
    assert migration["causal"]["pingpong"] < migration["li"]["pingpong"]


def test_experiments_md_is_what_the_report_command_prints():
    """No hand-edited numbers: the E1-E17 part of EXPERIMENTS.md is
    ``python -m repro report``'s output, byte for byte."""
    committed = (
        Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    ).read_text()
    generated = generate_markdown_report() + "\n"
    assert committed.startswith(generated), "run: python -m repro report"
