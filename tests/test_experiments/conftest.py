"""Fixtures shared by the experiment tests."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import EXPERIMENTS, _run


@pytest.fixture(scope="session")
def experiment_results() -> dict:
    """This session's run results by ``(module, run)``, filled through
    the CLI's ``_run``: a row at its default arguments runs once per
    session, whichever test reads it first."""
    return {}


def _default(name: str, results: dict):
    """Row ``name``'s result at its default arguments."""
    module, run, *_ = EXPERIMENTS[name]
    _run(name, results)
    return results[module, run]


# The fast rows the tests read at their default arguments.


@pytest.fixture(scope="session")
def table1(experiment_results):
    return _default("table1", experiment_results)


@pytest.fixture(scope="session")
def table2(experiment_results):
    return _default("table2", experiment_results)


@pytest.fixture(scope="session")
def fig1(experiment_results):
    return _default("fig1", experiment_results)


@pytest.fixture(scope="session")
def fig2(experiment_results):
    return _default("fig2", experiment_results)


@pytest.fixture(scope="session")
def fig3(experiment_results):
    return _default("fig3", experiment_results)


@pytest.fixture(scope="session")
def fig4(experiment_results):
    return _default("fig4", experiment_results)


@pytest.fixture(scope="session")
def ablations(experiment_results):
    return _default("ablations", experiment_results)


@pytest.fixture(scope="session")
def mesh(experiment_results):
    return _default("mesh", experiment_results)


@pytest.fixture(scope="session")
def mesh_crossover(experiment_results):
    return _default("mesh-crossover", experiment_results)


@pytest.fixture(scope="session")
def traffic(experiment_results):
    return _default("traffic", experiment_results)
