"""Config property: any document resolves to the run's dataclasses or raises
a ValueError (ConfigError is one), never another exception."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from bumpsim import config as cfg
from bumpsim.env import REWARD_VARIANTS

# Python's json reads NaN, Infinity and integers of any size.
numbers = (st.integers() | st.floats()
           | st.sampled_from([10**15, 10**400, -10**400, math.nan, -math.inf]))
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def near(default):
    """Values of the default's JSON shape, so that documents get past the
    type checks to the dataclass checks behind them."""
    if isinstance(default, int):
        return st.integers() | st.sampled_from([10**15, 10**400])
    if isinstance(default, float):
        return numbers
    if isinstance(default, str):
        return st.sampled_from(REWARD_VARIANTS)
    if isinstance(default, list):
        return st.lists(near(default[0]), min_size=len(default) - 1,
                        max_size=len(default) + 1)
    # terrain.fixed_bumps
    return st.none() | st.lists(st.fixed_dictionaries(
        {"H": numbers, "mu": numbers, "sigma": numbers}), max_size=3)


KEYS = [(name, key, default) for name, defaults in cfg.DEFAULTS.items()
        for key, default in defaults.items()]


@st.composite
def document(draw, value):
    """A few of the schema's keys, each value drawn from value(default)."""
    doc = {}
    for name, key, default in draw(st.lists(st.sampled_from(KEYS), max_size=4)):
        doc.setdefault(name, {})[key] = draw(value(default))
    return doc


documents = (
    document(near)
    | document(lambda default: near(default) | json_values)
    | st.dictionaries(st.sampled_from(sorted(cfg.DEFAULTS)) | st.text(max_size=8),
                      json_values, max_size=3)
    | json_values
)


@settings(max_examples=500, deadline=None)
@given(documents)
def test_any_document_resolves_or_raises_value_error(doc):
    try:
        resolved = cfg.resolve(doc)
        cfg.train_config(resolved, None)
        cfg.episode_config(resolved)
    except ValueError:
        pass
