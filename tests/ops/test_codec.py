"""The record codec: a dataclass's fields are its JSON payload.

One property covers what the per-class round-trip cases used to spell
out one record at a time: every :class:`repro.utils.jsonio.Record` --
observations, verdict, grades, ground truth, mitigation record, scaling
event, replay report -- survives ``to_payload -> json -> from_payload``
exactly, floats bit for bit (infinities and signed zeros included),
int-keyed dicts and ``None`` links covered.
"""

import json
import math
from dataclasses import fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops import (
    CrashObservation,
    DetectionGrade,
    EpochObservation,
    FleetWindowObservation,
    GroundTruth,
    MitigationGrade,
    MitigationRecord,
    ProblemGrade,
    ReplayReport,
    Verdict,
    WindowObservation,
    observation_from_dict,
)
from repro.serving.autoscaler import ScalingEvent
from repro.utils.jsonio import from_payload, to_payload

RECORDS = [
    EpochObservation, CrashObservation, WindowObservation,
    FleetWindowObservation, Verdict, DetectionGrade, MitigationGrade,
    ProblemGrade, GroundTruth, MitigationRecord, ScalingEvent, ReplayReport,
]

_SCALARS = {
    int: st.integers(-2 ** 53, 2 ** 53),
    float: st.floats(allow_nan=False),  # NaN != NaN; +-inf, -0.0 stay in
    bool: st.booleans(),
    str: st.text(max_size=6),
}
_PLAIN = st.one_of(st.none(), *_SCALARS.values())


def values(hint):
    """A Hypothesis strategy for values of one field type hint."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        (inner,) = [a for a in args if a is not type(None)]
        return st.none() | values(inner)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(values(args[0]), max_size=4).map(tuple)
    if origin is tuple:
        return st.tuples(*map(values, args))
    if origin is list:
        return st.lists(values(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(values(args[0]), values(args[1]), max_size=4)
    if is_dataclass(hint):
        return records(hint)
    return _SCALARS.get(hint, _PLAIN)  # ``object``: any plain scalar


def records(cls):
    hints = get_type_hints(cls)
    return st.builds(
        cls, **{f.name: values(hints[f.name]) for f in fields(cls) if f.init}
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_record_round_trips_through_json_exactly(cls, data):
    record = data.draw(records(cls))
    payload = to_payload(record)
    text = json.dumps(payload)
    clone = from_payload(cls, json.loads(text))
    assert clone == record
    # ``==`` lets -0.0 pass for 0.0; the re-encoded text does not.
    assert json.dumps(to_payload(clone)) == text
    assert list(payload) == (
        ["type"] if hasattr(cls, "type_tag") else []
    ) + [f.name for f in fields(cls)]
    assert record.to_dict() == payload
    assert cls.from_dict(json.loads(text)) == record


def test_payload_shapes_are_plain_json():
    obs = WindowObservation(
        window=2, t_start=0.5, t_end=1.5, num_workers=2, offered=3,
        served=2, shed=1, p50_s=0.1, p95_s=0.2, mean_s=0.15,
        worker_mean_s={1: 0.2, 0: 0.1}, worker_served={1: 1, 0: 1},
    )
    payload = obs.to_dict()
    assert payload["type"] == "window" and list(payload)[0] == "type"
    assert payload["worker_mean_s"] == {"1": 0.2, "0": 0.1}  # str keys, order kept
    assert observation_from_dict(payload) == obs

    verdict = Verdict(kind="link", detected_at_s=1.0, unit=4, link=(1, None))
    assert verdict.to_dict()["link"] == [1, None]
    assert Verdict.from_dict(verdict.to_dict()).link == (1, None)

    grade = MitigationGrade(
        applied=True, recovered=False, recovery_s=math.inf,
        recovery_budget_s=1.0, recovery_score=0.0, regression=math.inf,
        regression_score=0.0, score=0.0,
    )
    assert MitigationGrade.from_dict(
        json.loads(json.dumps(grade.to_dict()))
    ).recovery_s == math.inf


def test_omitted_keys_take_the_field_defaults():
    verdict = Verdict.from_dict(
        {"kind": "crash", "detected_at_s": 1, "unit": 3}
    )
    assert verdict == Verdict(kind="crash", detected_at_s=1.0, unit=3)
    assert isinstance(verdict.detected_at_s, float)
    with pytest.raises(TypeError):
        Verdict.from_dict({"kind": "crash"})  # required fields stay required


def test_type_tag_is_checked_and_dispatched():
    crash = CrashObservation(epoch=5, detected_at_s=1.0, worker=2)
    assert observation_from_dict(crash.to_dict()) == crash
    with pytest.raises(ValueError, match="'crash' is not 'epoch'"):
        EpochObservation.from_dict(crash.to_dict())
    with pytest.raises(ValueError, match="unknown observation type"):
        observation_from_dict({"type": "nonsense"})


def test_observations_expose_their_unit():
    crash = CrashObservation(epoch=5, detected_at_s=1.0, worker=2)
    window = FleetWindowObservation(
        window=7, t_start=0.0, t_end=1.0, offered=1, served=1, shed=0,
        p50_s=0.1, p95_s=0.1, mean_s=0.1, hot_vertex=3, hot_share=1.0,
    )
    assert (crash.unit, window.unit) == (5, 7)
