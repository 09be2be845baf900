import sys

import pytest
from hypothesis import HealthCheck, settings

from gbsgraphs import embedding

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def embeddable():
    """All 75 (code, spec) pairs, ascending code order."""
    return embedding.enumerate_embeddable()


@pytest.fixture(scope="session")
def specs_by_code(embeddable):
    return dict(embeddable)


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(module, name)`` returns a list that records the arguments
    of every later call to ``module.name``, from whichever gbsgraphs module
    bound it."""
    def install(module, name):
        original, calls = getattr(module, name), []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("gbsgraphs")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)
        return calls
    return install
