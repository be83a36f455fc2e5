"""Every checked field declares its rule, and every rule refuses by name.

rebq.rules reads each field's kind from its annotation and its range,
choices and stage from its declaration. The guard fails naming any field of
the checked dataclasses that declares no rule; the property draws, for
every config field, a value of the wrong kind or outside the declared
range and asserts that the refusal names the field; a config that gives a
value for one of the seed streams RunConfig derives from its root seed is
refused naming the stream. Only the checks run.
"""

import dataclasses
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebq.backbone import BackboneConfig, PretrainConfig
from rebq.bench import SynthConfig
from rebq.runner import ExperimentError, Report, RunConfig, SessionSummary

CHECKED = (RunConfig, BackboneConfig, SynthConfig, PretrainConfig, Report, SessionSummary)
CONFIGS = (RunConfig, BackboneConfig, SynthConfig, PretrainConfig)
NESTED = {"backbone": BackboneConfig, "synth": SynthConfig}


def test_every_field_declares_a_rule():
    undeclared = [f"{cls.__name__}.{f.name}" for cls in CHECKED
                  for f in dataclasses.fields(cls) if "rule" not in f.metadata]
    assert undeclared == []
    unstaged = [f.name for f in dataclasses.fields(RunConfig)
                if f.metadata["rule"].stage is None]
    assert unstaged == []


def wrong_kind(kind) -> st.SearchStrategy:
    """Values that are not of the annotated kind; a bool is no number, NaN no real."""
    optional = type(None) in typing.get_args(kind)
    base = typing.get_args(kind)[0] if optional else kind
    others = {
        int: st.booleans() | st.floats() | st.text(),
        float: st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(),
        str: st.integers() | st.booleans() | st.lists(st.text(), max_size=2),
        bool: st.integers() | st.floats() | st.text(),
    }.get(base, st.integers() | st.text() | st.dictionaries(st.text(), st.integers()))
    return others if optional else others | st.none()


def out_of_range(kind, rule) -> st.SearchStrategy:
    """Values of the right kind outside the field's declared range or choices."""
    if rule.choices:
        return st.text().filter(lambda v: v not in rule.choices)
    closed = not rule.open
    if kind is int:
        below = st.integers(max_value=rule.low - closed)
        above = None if rule.high is None else st.integers(min_value=rule.high + closed)
    else:
        reals = dict(allow_nan=False, allow_infinity=False)
        below = st.floats(max_value=rule.low, exclude_max=closed, **reals)
        above = None if rule.high is None else st.floats(min_value=rule.high,
                                                          exclude_min=closed, **reals)
    return below if above is None else below | above


def bad_values(cls, f) -> st.SearchStrategy:
    kind, rule = typing.get_type_hints(cls)[f.name], f.metadata["rule"]
    ranged = rule.choices or rule.low is not None
    return wrong_kind(kind) | out_of_range(kind, rule) if ranged else wrong_kind(kind)


FIELDS = [pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
          for cls in CONFIGS for f in dataclasses.fields(cls)]
# the seed streams RunConfig derives from its root seed, given by name
STREAMS = [pytest.param(RunConfig, name, id=f"RunConfig.{name}")
           for name, v in vars(RunConfig).items()
           if isinstance(v, property) and name.startswith("seed_")]


@pytest.mark.parametrize("cls, f", FIELDS + STREAMS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bad_value_refused_naming_the_field(cls, f, data):
    if isinstance(f, str):
        # a derived seed stream takes no value of its own: a config that
        # gives one, bad as the root seed's rule sees it, is refused by name
        value = data.draw(bad_values(cls, RunConfig.__dataclass_fields__["seed"]))
        with pytest.raises(ValueError, match=rf"^config has unknown keys \['{f}'\]$"):
            RunConfig.from_dict({f: value})
        with pytest.raises(AttributeError, match=f"'{f}'"):
            setattr(RunConfig(), f, value)
        return
    value = data.draw(bad_values(cls, f))
    if cls is RunConfig:
        with pytest.raises(ExperimentError) as exc:
            dataclasses.replace(RunConfig(), **{f.name: value}).check()
        assert exc.value.stage == f.metadata["rule"].stage
        assert exc.value.cause.startswith(f"{f.name} must ")
        return
    with pytest.raises(ValueError, match=f"^{f.name} must "):
        cls(**{f.name: value})
    key = next((k for k, kind in NESTED.items() if kind is cls), None)
    if key is not None:
        # a nested config changed after it was built is refused by RunConfig.check
        nested = cls()
        setattr(nested, f.name, value)
        with pytest.raises(ExperimentError) as exc:
            RunConfig(**{key: nested}).check()
        assert exc.value.stage == RunConfig.__dataclass_fields__[key].metadata["rule"].stage
        assert exc.value.cause.startswith(f"{key}.{f.name} must ")
