"""Shared fixtures."""

import pytest

from cohomkit.cohomology import CohomologyGroup


@pytest.fixture
def cohomology_builds(monkeypatch):
    """The key (group table, orders, action, degree) of every CohomologyGroup built."""
    built = []
    init = CohomologyGroup.__init__

    def counting_init(self, module, degree, work_bound=1 << 26):
        built.append((module.group.mul.tobytes(), tuple(module.ab.orders), module.act.tobytes(), degree))
        init(self, module, degree, work_bound)

    monkeypatch.setattr(CohomologyGroup, "__init__", counting_init)
    return built
