"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  Results are
printed to stdout (so ``pytest benchmarks/ --benchmark-only -s`` shows the
regenerated rows/series) and also written as plain-text files, plus the
machine-readable ``BENCH_kernel.json``, to a results directory.  That is a
per-session temporary directory unless ``--results-dir DIR`` names one, so a
plain test run never rewrites the tracked ``results/``; regenerate them with
``pytest benchmarks/ --results-dir results``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

KERNEL_JSON = "BENCH_kernel.json"


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir",
        default=None,
        metavar="DIR",
        help="write regenerated tables and BENCH_kernel.json to DIR (default: a session temp dir)",
    )


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> Path:
    """Directory where benchmarks drop their regenerated tables/series."""
    # getoption's default covers runs where this conftest was not loaded at
    # start-up (e.g. a bare ``pytest`` from the repository root).
    option = request.config.getoption("results_dir", default=None)
    if option is None:
        return tmp_path_factory.mktemp("results")
    path = Path(option)
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture()
def save_result(results_dir):
    """Callable that writes one experiment's textual output to <results_dir>/<name>.txt."""

    def _save(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n# --- {name} ---\n{text}\n")
        return path

    return _save


@pytest.fixture()
def save_kernel_json(results_dir):
    """Callable merging one benchmark section into <results_dir>/BENCH_kernel.json
    (the machine-readable artifact the CI perf-regression job consumes)."""

    def _save(section: str, payload: dict) -> Path:
        path = results_dir / KERNEL_JSON
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            document = {"schema_version": 1}
        document[section] = payload
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return path

    return _save
