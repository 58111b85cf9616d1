"""Pytest harness for chaos campaigns.

``@chaos_campaign(seeds=[...])`` turns a test function into one
parametrized case per seed; each case runs a full campaign for its seed
and hands the verdict dict to the test body::

    @chaos_campaign(seeds=[1, 2, 3], horizon=60.0)
    def test_invariants_hold(verdict):
        assert verdict["ok"], verdict["invariants"]

The wrapper exposes a ``chaos_seed`` parameter (what pytest
parametrizes) and calls the body with the finished verdict — the test
never touches the runner unless it wants to (pass ``scenario=`` or a
``config=`` for non-default shapes).
"""

from __future__ import annotations

from typing import Optional

from .campaign import CampaignConfig, CampaignRunner

__all__ = ["chaos_campaign"]


def chaos_campaign(seeds, scenario: str = "paper-lab",
                   config: Optional[CampaignConfig] = None,
                   scenario_factory=None, invariants=None, **config_kwargs):
    """Decorator: run the test once per seed with that seed's verdict.

    ``config_kwargs`` build a :class:`CampaignConfig` when ``config`` is
    not given (e.g. ``horizon=60.0, max_events=3``).
    """
    import pytest  # a dev extra: needed to decorate a test, not to import us
    if config is None:
        config = CampaignConfig(**config_kwargs)
    elif config_kwargs:
        raise TypeError("pass either config= or config kwargs, not both")

    def decorate(fn):
        @pytest.mark.parametrize("chaos_seed", list(seeds))
        def wrapper(chaos_seed):
            runner = CampaignRunner(scenario=scenario, config=config,
                                    invariants=invariants,
                                    scenario_factory=scenario_factory)
            fn(runner.run_seed(chaos_seed))
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    return decorate
