"""Shared fixtures for the suite."""

import pytest

from flowmap.cli import main


@pytest.fixture(scope="session")
def selftest_runs(tmp_path_factory):
    """Two identically seeded ``flowmap selftest`` runs, shared by the
    determinism tests: (exit code, report.json bytes) per run."""
    runs = []
    for sub in ("s1", "s2"):
        out = tmp_path_factory.mktemp(sub)
        rc = main(["selftest", "--seed", "0", "--out", str(out)])
        runs.append((rc, (out / "report.json").read_bytes()))
    return runs
