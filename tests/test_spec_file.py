"""The four spec-file kinds share one base: the same I/O, checks and messages."""

from __future__ import annotations

import json
import re

import pytest

from repro.arena import ArenaSpec
from repro.network import NetworkSpec
from repro.protocol import SessionSpec
from repro.scenario import Scenario
from repro.utils.spec import SpecError, SpecFile

#: (spec class, a minimal valid spec, an integer field of it)
KINDS = {
    "scenario": (Scenario, {"name": "s", "packets": 2, "seed": 3}, "packets"),
    "network": (
        NetworkSpec,
        {"name": "n", "links": [{"name": "a", "seed": 1}, {"name": "b", "seed": 2}]},
        "packets",
    ),
    "arena": (
        ArenaSpec,
        {"name": "a", "jammers": {"none": {"type": "none"}}, "hop_ranges": [1, 2]},
        "packets",
    ),
    "session": (
        SessionSpec,
        {"name": "x", "traffic": {"num_messages": 1, "message_bytes": 4}},
        "packets_per_epoch",
    ),
}


@pytest.mark.parametrize("name", sorted(KINDS))
def test_spec_kind_shares_the_base(tmp_path, name):
    cls, data, int_field = KINDS[name]
    assert issubclass(cls, SpecFile) and cls.KIND == name
    assert issubclass(cls.Error, SpecError)

    spec = cls.from_dict(data)
    path = spec.save(str(tmp_path / "nested" / f"{name}.json"))
    assert cls.load(path).to_dict() == spec.to_dict()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, "bogus": 1}))
    message = rf"^{re.escape(str(bad))}: unknown {name} field\(s\): \['bogus'\]"
    with pytest.raises(cls.Error, match=message):
        cls.load(str(bad))

    with pytest.raises(cls.Error, match=rf"^{int_field}: expected an integer, got '2'"):
        cls.from_dict({**data, int_field: "2"})
    with pytest.raises(cls.Error, match=rf"^{int_field}: expected an integer, got 2.5"):
        spec.with_overrides(**{int_field: 2.5})
    assert spec.with_overrides(description="d").description == "d"
