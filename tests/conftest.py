"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import DsmCluster, DsmConfig
from repro import apps
from repro.core import FtConfig, LogOverflowPolicy

# tier-1 is a function of the tree: every hypothesis test replays the same
# examples on every run and neither reads nor writes a local example
# database. Random exploration belongs in a campaign whose finds become
# pinned tests, not in the verify line.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


#: small, fast default sizes of every workload
SMALL = {
    "counter": {"steps": 3, "n_elements": 512},
    "kvstore": {"steps": 2, "n_keys": 256, "n_stripes": 8},
    "session": {"steps": 2, "n_keys": 128, "requests_per_step": 6},
    "water-nsq": {"n_molecules": 64, "steps": 3},
    "water-spatial": {"n_molecules": 216, "steps": 3},
    "barnes": {"n_bodies": 128, "steps": 2},
    "lu": {"matrix_size": 64, "block_size": 8},
}


def make_app(name: str, **overrides):
    return apps.make_app(name, **{**SMALL[name], **overrides})


def make_cluster(
    num_procs: int = 8,
    ft: bool = False,
    l_fraction: float = 0.2,
    ft_config: FtConfig | None = None,
    **dsm_overrides,
) -> DsmCluster:
    return DsmCluster(
        DsmConfig(num_procs=num_procs, **dsm_overrides),
        ft=ft,
        ft_config=ft_config,
        policy_factory=lambda pid, fp: LogOverflowPolicy(l_fraction, fp),
    )


APP_NAMES = list(SMALL)


@pytest.fixture(params=APP_NAMES)
def app_name(request):
    return request.param
