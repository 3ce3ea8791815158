"""Instance and schedule serialization (JSON and CSV).

The CLI and downstream users need to move instances in and out of the
library.  Two formats:

* **JSON** — lossless: jobs with ids and labels, plus optional metadata;
* **CSV** — three or four columns (``release,deadline,length[,id]``) with an
  optional header row, for spreadsheet-sourced traces.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path
from typing import Any

from .core.jobs import Instance, Job

__all__ = [
    "FORMAT_MARKER",
    "instance_to_payload",
    "instance_from_payload",
    "instance_to_json",
    "instance_from_json",
    "save_instance",
    "load_instance",
    "load_instances",
    "instance_to_csv",
    "instance_from_csv",
    "instances_from_jsonl",
]

#: Format marker stamped into every serialized instance payload.
FORMAT_MARKER = "repro-instance-v1"


def instance_to_payload(instance: Instance, **metadata: Any) -> dict[str, Any]:
    """An instance (and optional metadata) as a JSON-ready dict.

    The dict form is the wire format shared by files (:func:`
    instance_to_json`), JSONL workloads and the HTTP serving layer.
    """
    return {
        "format": FORMAT_MARKER,
        "metadata": metadata,
        "jobs": [
            {
                "id": j.id,
                "release": j.release,
                "deadline": j.deadline,
                "length": j.length,
                **({"label": j.label} if j.label else {}),
            }
            for j in instance.jobs
        ],
    }


def instance_from_payload(payload: Any) -> Instance:
    """Inverse of :func:`instance_to_payload`, with lenient hand-written input.

    The ``format`` marker is required in files but optional in payloads
    assembled by hand (e.g. a curl request body); job ``id`` defaults to
    the job's position.  A present-but-wrong marker is still an error.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"instance payload must be an object, got {type(payload).__name__}"
        )
    if "format" in payload and payload["format"] != FORMAT_MARKER:
        raise ValueError(
            f"unrecognized format marker {payload.get('format')!r}"
        )
    jobs_field = payload.get("jobs")
    if not isinstance(jobs_field, list):
        raise ValueError("instance payload needs a 'jobs' array")
    jobs = []
    for pos, rec in enumerate(jobs_field):
        if not isinstance(rec, dict):
            raise ValueError(f"job {pos} must be an object, got {rec!r}")
        for field in ("release", "deadline", "length"):
            if field not in rec:
                raise ValueError(
                    f"job {pos} is missing required field {field!r} "
                    "(need release, deadline, length)"
                )
            value = rec[field]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"job {pos} field {field!r} must be a number, "
                    f"got {value!r}"
                )
        jid = rec.get("id", pos)
        if isinstance(jid, bool) or not isinstance(jid, int):
            raise ValueError(
                f"job {pos} field 'id' must be an integer, got {jid!r}"
            )
        jobs.append(
            Job(
                release=rec["release"],
                deadline=rec["deadline"],
                length=rec["length"],
                id=jid,
                label=str(rec.get("label", "")),
            )
        )
    return Instance(tuple(jobs))


def instance_to_json(instance: Instance, **metadata: Any) -> str:
    """Serialize an instance (and optional metadata) to a JSON string."""
    return json.dumps(instance_to_payload(instance, **metadata), indent=2)


def instance_from_json(text: str) -> Instance:
    """Parse an instance from :func:`instance_to_json` output."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_MARKER:
        marker = payload.get("format") if isinstance(payload, dict) else None
        raise ValueError(f"unrecognized format marker {marker!r}")
    return instance_from_payload(payload)


def save_instance(instance: Instance, path: str | Path, **metadata: Any) -> None:
    """Write an instance to a ``.json`` or ``.csv`` file (by extension)."""
    p = Path(path)
    if p.suffix == ".json":
        p.write_text(instance_to_json(instance, **metadata))
    elif p.suffix == ".csv":
        p.write_text(instance_to_csv(instance))
    else:
        raise ValueError(f"unsupported extension {p.suffix!r} (json/csv)")


def load_instance(path: str | Path) -> Instance:
    """Read an instance from a ``.json`` or ``.csv`` file (by extension)."""
    p = Path(path)
    if p.suffix == ".json":
        return instance_from_json(p.read_text())
    if p.suffix == ".csv":
        return instance_from_csv(p.read_text())
    raise ValueError(f"unsupported extension {p.suffix!r} (json/csv)")


def instance_to_csv(instance: Instance) -> str:
    """Serialize to CSV with a header row."""
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["release", "deadline", "length", "id"])
    for j in instance.jobs:
        writer.writerow([j.release, j.deadline, j.length, j.id])
    return buf.getvalue()


def instance_from_csv(text: str) -> Instance:
    """Parse CSV rows ``release,deadline,length[,id]`` (header optional)."""
    jobs: list[Job] = []
    next_id = 0
    for row_num, row in enumerate(csv.reader(_io.StringIO(text))):
        if not row or not "".join(row).strip():
            continue
        try:
            values = [float(cell) for cell in row[:4]]
        except ValueError:
            if row_num == 0:
                continue  # header
            raise ValueError(f"malformed CSV row {row_num + 1}: {row}")
        if len(values) < 3:
            raise ValueError(f"CSV row {row_num + 1} needs >= 3 columns")
        jid = int(values[3]) if len(values) >= 4 else next_id
        jobs.append(
            Job(release=values[0], deadline=values[1], length=values[2], id=jid)
        )
        next_id = max(next_id, jid) + 1
    return Instance(tuple(jobs))


def instances_from_jsonl(text: str) -> list[Instance]:
    """Parse a JSONL workload: one instance object (the
    :func:`instance_to_payload` form) per non-blank line."""
    return [
        instance_from_json(line)
        for line in text.splitlines()
        if line.strip()
    ]


def load_instances(path: str | Path) -> list[Instance]:
    """Read one or many instances from a file.

    ``.jsonl`` files yield every instance they contain; ``.json`` and
    ``.csv`` files yield a single-element list.
    """
    p = Path(path)
    if p.suffix == ".jsonl":
        return instances_from_jsonl(p.read_text())
    return [load_instance(p)]
