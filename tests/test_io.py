"""Tests for instance serialization (repro.io)."""

import json

import pytest

from repro.core import Instance, Job
from repro.io import (
    instance_from_csv,
    instance_from_json,
    instance_to_csv,
    instance_to_json,
    instance_to_payload,
    load_instance,
    save_instance,
)


def _jsonl(instances) -> str:
    """A JSONL workload: one compact instance object per line."""
    return "".join(json.dumps(instance_to_payload(i)) + "\n" for i in instances)


class TestJson:
    def test_roundtrip(self, tiny_instance):
        text = instance_to_json(tiny_instance)
        assert instance_from_json(text) == tiny_instance

    def test_labels_preserved(self):
        inst = Instance((Job(0, 3, 2, id=5, label="rigid"),))
        back = instance_from_json(instance_to_json(inst))
        assert back.jobs[0].label == "rigid"
        assert back.jobs[0].id == 5

    def test_metadata_embedded(self, tiny_instance):
        text = instance_to_json(tiny_instance, g=3, source="unit-test")
        assert '"g": 3' in text

    def test_bad_format_marker(self):
        with pytest.raises(ValueError, match="format"):
            instance_from_json('{"format": "other", "jobs": []}')

    def test_real_values_roundtrip(self):
        inst = Instance.from_intervals([(0.125, 1.375), (2.5, 3.75)])
        assert instance_from_json(instance_to_json(inst)) == inst


class TestPayload:
    """The dict wire format shared by files, JSONL and the HTTP layer."""

    def test_roundtrip_keeps_ids_labels_and_metadata(self):
        from repro.io import instance_from_payload, instance_to_payload

        inst = Instance(
            (Job(0, 3, 2, id=7, label="rigid"), Job(1, 5, 1, id=2))
        )
        payload = instance_to_payload(inst, g=3)
        assert payload["metadata"] == {"g": 3}
        back = instance_from_payload(payload)
        assert back == inst
        assert [j.label for j in back.jobs] == ["rigid", ""]

    def test_hand_written_payload_needs_no_marker_or_ids(self):
        from repro.io import instance_from_payload

        inst = instance_from_payload(
            {"jobs": [{"release": 0, "deadline": 4, "length": 2},
                      {"release": 1, "deadline": 5, "length": 3}]}
        )
        assert inst == Instance.from_tuples([(0, 4, 2), (1, 5, 3)])
        assert [j.id for j in inst.jobs] == [0, 1]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "must be an object"),
            ({"format": "other", "jobs": []}, "format marker"),
            ({}, "'jobs' array"),
            ({"jobs": {"release": 0}}, "'jobs' array"),
            ({"jobs": [[0, 4, 2]]}, "job 0 must be an object"),
            ({"jobs": [{"release": 0, "length": 2}]}, "missing .*'deadline'"),
            (
                {"jobs": [{"release": "0", "deadline": 4, "length": 2}]},
                "'release' must be a number",
            ),
            (
                {"jobs": [{"release": 0, "deadline": True, "length": 2}]},
                "'deadline' must be a number",
            ),
            (
                {"jobs": [{"release": 0, "deadline": 4, "length": 2,
                           "id": 1.5}]},
                "'id' must be an integer",
            ),
            (
                {"jobs": [{"release": 0, "deadline": 4, "length": 2,
                           "id": False}]},
                "'id' must be an integer",
            ),
        ],
        ids=[
            "not-an-object",
            "wrong-marker",
            "no-jobs",
            "jobs-not-a-list",
            "job-not-an-object",
            "missing-field",
            "quoted-number",
            "bool-field",
            "fractional-id",
            "bool-id",
        ],
    )
    def test_malformed_payload_names_its_fault(self, payload, message):
        from repro.io import instance_from_payload

        with pytest.raises(ValueError, match=message):
            instance_from_payload(payload)


class TestCsv:
    def test_roundtrip(self, tiny_instance):
        text = instance_to_csv(tiny_instance)
        assert instance_from_csv(text) == tiny_instance

    def test_header_optional(self):
        got = instance_from_csv("0,4,2\n1,5,3\n")
        assert got.n == 2
        assert got.jobs[1].length == 3

    def test_ids_auto_assigned(self):
        got = instance_from_csv("release,deadline,length\n0,4,2\n1,5,3\n")
        assert [j.id for j in got.jobs] == [0, 1]

    def test_explicit_ids(self):
        got = instance_from_csv("0,4,2,7\n1,5,3,9\n")
        assert [j.id for j in got.jobs] == [7, 9]

    def test_malformed_row(self):
        with pytest.raises(ValueError, match="malformed"):
            instance_from_csv("0,4,2\nnot,a,row\n")

    def test_too_few_columns(self):
        with pytest.raises(ValueError, match="columns"):
            instance_from_csv("0,4\n")

    def test_blank_lines_skipped(self):
        got = instance_from_csv("0,4,2\n\n1,5,3\n\n")
        assert got.n == 2


class TestFiles:
    def test_save_load_json(self, tiny_instance, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(tiny_instance, path, g=2)
        assert load_instance(path) == tiny_instance

    def test_save_load_csv(self, tiny_instance, tmp_path):
        path = tmp_path / "inst.csv"
        save_instance(tiny_instance, path)
        assert load_instance(path) == tiny_instance

    def test_unsupported_extension(self, tiny_instance, tmp_path):
        with pytest.raises(ValueError, match="extension"):
            save_instance(tiny_instance, tmp_path / "inst.yaml")
        with pytest.raises(ValueError, match="extension"):
            load_instance(tmp_path / "inst.yaml")


class TestJsonl:
    def test_roundtrip(self, tiny_instance, interval_instance):
        from repro.io import instances_from_jsonl

        text = _jsonl([tiny_instance, interval_instance])
        assert instances_from_jsonl(text) == [tiny_instance, interval_instance]

    def test_empty(self):
        from repro.io import instances_from_jsonl

        assert instances_from_jsonl("") == []

    def test_load_instances_dispatches_by_extension(
        self, tiny_instance, interval_instance, tmp_path
    ):
        from repro.io import load_instances

        many = tmp_path / "work.jsonl"
        many.write_text(_jsonl([tiny_instance, interval_instance]))
        assert load_instances(many) == [tiny_instance, interval_instance]

        one = tmp_path / "one.json"
        save_instance(tiny_instance, one)
        assert load_instances(one) == [tiny_instance]
