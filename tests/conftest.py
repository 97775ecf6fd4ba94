from __future__ import annotations

import pytest

from causaltext.gateway import Gateway, ProviderConfig, ReplayFixture, ReplayTransport
from helpers import CountingTransport


@pytest.fixture
def provider_config(tmp_path) -> ProviderConfig:
    return ProviderConfig(
        cache_dir=tmp_path / "cache",
        backoff_base=0.0,
        requests_per_minute=1e9,
    )


@pytest.fixture
def gateway_factory(tmp_path):
    """Build a replay gateway with an isolated cache directory."""
    counter = 0

    def build(
        fixture: ReplayFixture,
        parallelism: int = 1,
        counting: bool = False,
    ) -> tuple[Gateway, CountingTransport | None]:
        nonlocal counter
        counter += 1
        config = ProviderConfig(
            cache_dir=tmp_path / f"cache{counter}",
            parallelism=parallelism,
            backoff_base=0.0,
            requests_per_minute=1e9,
        )
        transport = ReplayTransport(fixture)
        wrapper = CountingTransport(transport) if counting else None
        return Gateway(config, wrapper or transport), wrapper

    return build
