from __future__ import annotations

import contextlib

import pytest

from mvalloc import engine
from mvalloc.compaction import build_high_layer
from mvalloc.fixtures import robot_model


def pytest_configure():
    """Build the C kernels into a temp dir and register them as backend "c".

    Runs before collection, so "auto" resolves to "c" and the tests that
    compare the backends run, as in an install with the library built.
    Without a C compiler, or with a library already next to the package,
    nothing is built.
    """
    engine._build()


@pytest.fixture(scope="session")
def robot():
    """(repository, platform, architecture) of the bundled example."""
    return robot_model()


@pytest.fixture(scope="session")
def robot_high(robot):
    repo, _, architecture = robot
    return build_high_layer(architecture, repo)


@pytest.fixture(scope="session")
def announce(request):
    """Print a line on the real terminal, past pytest's capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(line: str) -> None:
        if manager is None:
            print(line)
            return
        with manager.global_and_fixture_disabled():
            print(line)

    return _announce


@pytest.fixture()
def criterion(announce):
    """Context manager printing one pass/fail line for an acceptance check."""

    @contextlib.contextmanager
    def _criterion(label: str):
        info: dict[str, str] = {}
        try:
            yield info
        except BaseException:
            announce(f"{label}: FAIL")
            raise
        detail = info.get("detail", "")
        announce(f"{label}: PASS" + (f" ({detail})" if detail else ""))

    return _criterion
