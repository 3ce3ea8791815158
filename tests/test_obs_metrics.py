"""Tests for `repro.obs`: metric families, the Prometheus renderer,
trace spans and the JSONL event log."""

import io
import json
import math
import threading

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    TaskTrace,
    render_prometheus,
    trace_labels,
    trace_spans,
)
from repro.obs.metrics import BUCKETS
from repro.obs.prom import CONTENT_TYPE


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_children_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help", ("status",))
        c.labels(status="ok").inc(3)
        c.labels("err").inc()
        assert c.labels(status="ok").value == 3
        assert c.labels(status="err").value == 1

    def test_wrong_label_count_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help", ("a", "b"))
        with pytest.raises(ValueError):
            c.labels("only-one")
        with pytest.raises(ValueError):
            c.labels(a="x", wrong="y")

    def test_unlabeled_family_rejects_labels_shortcut(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help", ("who",))
        with pytest.raises(ValueError):
            c.inc()  # must go through .labels(...)


class TestGauge:
    def test_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "help")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6


class TestHistogram:
    def test_buckets_strictly_increasing(self):
        """``observe`` bisects the edges, so they must be sorted, distinct,
        positive and finite (the slot past the last edge is ``+Inf``)."""
        assert list(BUCKETS) == sorted(set(BUCKETS))
        assert BUCKETS[0] > 0 and math.isfinite(BUCKETS[-1])

    def test_bucket_counts_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "help")
        for v in (0.04, 0.4, 4.0, 400.0):
            h.observe(v)
        counts, total, count = h._solo().snapshot()
        # one per bucket, the last in the overflow slot past every edge
        slots = [BUCKETS.index(edge) for edge in (0.05, 0.5, 5.0)]
        assert [i for i, n in enumerate(counts) if n] == slots + [
            len(BUCKETS)
        ]
        assert count == 4
        assert total == pytest.approx(404.44)

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are `le` (less-or-equal): an observation
        # exactly on an edge belongs to that edge's bucket.
        reg = MetricsRegistry()
        h = reg.histogram("lat", "help")
        h.observe(1.0)
        counts, _, _ = h._solo().snapshot()
        assert counts[BUCKETS.index(1.0)] == sum(counts) == 1

    def test_quantile_and_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "help")
        for _ in range(99):
            h.observe(0.04)
        h.observe(4.0)
        assert h.quantile(0.5) == 0.05
        assert h.quantile(1.0) == 5.0
        summary = h.summary()
        assert summary["count"] == 100
        assert summary["p50"] == 0.05
        assert summary["p99"] == 0.05

    def test_empty_quantile_is_nan(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "help")
        assert math.isnan(h.quantile(0.5))


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "help", ("k",))
        b = reg.counter("x_total", "other help", ("k",))
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help")
        with pytest.raises(ValueError):
            reg.gauge("x_total", "help")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help", ("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "help", ("b",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name", "help")
        with pytest.raises(ValueError):
            reg.counter("ok_total", "help", ("bad-label",))
        with pytest.raises(ValueError):
            reg.histogram("h", "help", ("le",))  # reserved

    def test_disable_gates_recording(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        h = reg.histogram("h", "help")
        reg.disable()
        c.inc()
        h.observe(1.0)
        reg.enable()
        c.inc()
        assert c.value == 1
        assert h.count == 0

    def test_value_shorthand_never_raises(self):
        reg = MetricsRegistry()
        assert reg.value("missing") == 0.0
        reg.counter("x_total", "help", ("k",)).labels(k="a").inc()
        assert reg.value("x_total") == 0.0  # labeled: no unlabeled series
        reg.counter("y_total", "help").inc()
        assert reg.value("y_total") == 1.0

    def test_concurrent_increments_are_lossless(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")

        def spin():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestPrometheusRendering:
    def test_help_type_and_series_lines(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "Jobs\nprocessed", ("status",)) \
            .labels(status="ok").inc(2)
        text = render_prometheus(reg)
        assert "# HELP jobs_total Jobs\\nprocessed\n" in text
        assert "# TYPE jobs_total counter\n" in text
        assert 'jobs_total{status="ok"} 2\n' in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "h", ("path",)) \
            .labels(path='a"b\\c\nd').inc()
        text = render_prometheus(reg)
        assert r'x_total{path="a\"b\\c\nd"} 1' in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "h")
        for v in (0.05, 0.5, 500.0):
            h.observe(v)
        text = render_prometheus(reg)
        assert 'lat_seconds_bucket{le="0.05"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="60"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_sum 500.55" in text
        assert "lat_seconds_count 3" in text

    def test_content_type_advertises_format_004(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestTaskTrace:
    def test_spans_and_labels_roundtrip(self):
        trace = TaskTrace(algorithm="rounding", backend=None)
        trace.add_span("queued", 0.25)
        with trace.span("solving"):
            pass
        trace.label(status="ok")
        payload = trace.to_payload()
        assert payload["labels"] == {"algorithm": "rounding", "status": "ok"}
        names = [s["name"] for s in payload["spans"]]
        assert names == ["queued", "solving"]
        metrics = {"trace": payload}
        assert trace_spans(metrics)["queued"] == 0.25
        assert trace_labels(metrics)["status"] == "ok"

    def test_repeated_span_names_fold_by_summation(self):
        trace = TaskTrace()
        trace.add_span("solving", 1.0)
        trace.add_span("solving", 2.0)
        assert trace_spans({"trace": trace.to_payload()}) == {"solving": 3.0}

    def test_missing_trace_reads_as_empty(self):
        assert trace_spans(None) == {}
        assert trace_spans({}) == {}
        assert trace_labels({"metrics": 1}) == {}


class TestEventLog:
    def test_writes_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "logs" / "events.jsonl"
        with EventLog(path) as log:
            log.emit("start", jobs=2)
            log.emit("done", ok=True)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "start"
        assert first["jobs"] == 2
        assert "ts" in first

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("a")
        with EventLog(path) as log:
            log.emit("b")
        assert len(path.read_text().splitlines()) == 2

    def test_stream_target_is_not_closed(self):
        stream = io.StringIO()
        with EventLog(stream) as log:
            log.emit("x", detail=object())  # non-serializable -> repr
        assert not stream.closed
        record = json.loads(stream.getvalue())
        assert record["event"] == "x"
        assert "object" in record["detail"]

    def test_emit_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("a")
        log.close()
        log.emit("b")
        assert len(path.read_text().splitlines()) == 1
