"""The live status stream and ``repro top`` (:mod:`repro.obs.top`).

Sink multiplexing, the :class:`TopState` fold, the pure renderer, the
``follow`` loop in ``--once`` mode, and the CLI wiring -- driven both
from hand-built records and from a real run with ``status_path`` set.
"""

import io
import json

import pytest

from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.obs.top import (
    StatusStreamSink,
    TopState,
    follow,
    render_top,
    sparkline,
)
from repro.workloads.synthetic import chain_loop, geometric_chain_targets


def _loop(n=64):
    return chain_loop(n, geometric_chain_targets(n, 0.5))


class TestStatusStreamSink:
    def test_multiplexes_three_planes(self):
        from repro.obs.events import RunBegin

        buffer = io.StringIO()
        sink = StatusStreamSink(buffer)
        sink.emit(RunBegin(loop="x", strategy="nrd", n_procs=2,
                           n_iterations=8))
        sink.note_oplog({"component": "engine", "event": "run-begin"})
        sink.note_resources({"t": 0.1, "rss_bytes": 42})
        sink.close()
        records = [json.loads(line) for line in
                   buffer.getvalue().splitlines()]
        assert [r["plane"] for r in records] == [
            "events", "oplog", "resources",
        ]
        assert records[0]["event"] == "run_begin"
        assert records[2]["rss_bytes"] == 42

    def test_writes_are_line_flushed_to_file(self, tmp_path):
        path = tmp_path / "status.jsonl"
        sink = StatusStreamSink(str(path))
        sink.note_oplog({"event": "tick"})
        # Visible to a reader *before* close -- `repro top` tails live.
        assert json.loads(path.read_text())["event"] == "tick"
        sink.close()

    def test_close_is_idempotent_and_stops_writes(self):
        buffer = io.StringIO()
        sink = StatusStreamSink(buffer)
        sink.close()
        sink.close()
        sink.note_oplog({"event": "late"})
        assert buffer.getvalue() == ""

    def test_unserializable_record_is_dropped(self):
        buffer = io.StringIO()
        sink = StatusStreamSink(buffer)
        sink.note_oplog({"bad": object()})  # default=str handles this
        sink.close()
        assert "bad" in buffer.getvalue()


class TestTopStateFold:
    def _state(self, records):
        state = TopState()
        for record in records:
            state.feed(record)
        return state

    def test_run_begin_and_commit(self):
        state = self._state([
            {"plane": "events", "event": "run_begin", "loop": "chain",
             "strategy": "adaptive", "n_procs": 4, "n_iterations": 96},
            {"plane": "events", "event": "commit", "stage": 0,
             "committed_upto": 48},
        ])
        assert state.loop == "chain"
        assert state.n_iterations == 96
        assert state.committed_upto == 48
        assert "commit" in state.last

    def test_failed_stage_counts_as_restart(self):
        state = self._state([
            {"plane": "events", "event": "stage_end", "stage": 0,
             "result": {"failed": True}},
            {"plane": "events", "event": "stage_end", "stage": 1,
             "result": {"failed": False}},
        ])
        assert state.stages == 2
        assert state.restarts == 1

    def test_degradation_and_supervision_counters(self):
        state = self._state([
            {"plane": "events", "event": "backend_degraded",
             "from_backend": "shm", "to_backend": "serial"},
            {"plane": "oplog", "component": "supervise",
             "event": "worker-respawned"},
            {"plane": "oplog", "component": "supervise",
             "event": "worker-respawned"},
        ])
        assert state.degradations == ["shm->serial"]
        assert state.supervise["worker-respawned"] == 2

    def test_run_failed_marks_done(self):
        state = self._state([
            {"plane": "oplog", "component": "engine", "event": "run-failed",
             "error": "SpeculationError: boom"},
        ])
        assert state.done
        assert "boom" in state.failed

    def test_resources_fold_prefers_thread_count(self):
        state = self._state([
            {"plane": "resources", "rss_bytes": 10, "worker_threads": 3,
             "workers": []},
        ])
        assert state.workers_alive == 3
        state = self._state([
            {"plane": "resources", "rss_bytes": 10,
             "workers": [{"pid": 1}, {"pid": 2}]},
        ])
        assert state.workers_alive == 2

    def test_torn_tail_line_is_ignored(self):
        state = TopState()
        state.feed_line('{"plane": "events", "event": "run_beg')
        state.feed_line("")
        assert state.loop == "?"


class TestRendering:
    def test_sparkline_scales_to_peak(self):
        line = sparkline([0, 5, 10], width=3)
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_empty_and_flat_zero(self):
        assert sparkline([]) == "-"
        assert sparkline([0, 0]) == "▁▁"

    def test_render_frame_contents(self):
        state = TopState()
        state.feed({"plane": "events", "event": "run_begin", "loop": "chain",
                    "strategy": "adaptive", "n_procs": 4, "n_iterations": 10})
        state.feed({"plane": "events", "event": "commit", "stage": 0,
                    "committed_upto": 5})
        state.feed({"plane": "resources", "rss_bytes": 1_000_000,
                    "worker_rss_bytes": 0, "shm_bytes": 0, "cpu_s": 0.5,
                    "backend": "shm", "gil": "gil"})
        frame = render_top(state)
        assert "chain" in frame
        assert " 50.0%" in frame
        assert "(5/10 iterations)" in frame
        assert "backend shm [gil]" in frame
        assert "1.0 MB" in frame

    def test_render_without_samples_hints_at_flag(self):
        frame = render_top(TopState())
        assert "--resources" in frame


class TestFollowAndCli:
    def _record_run(self, path):
        parallelize(_loop(), 4, RuntimeConfig.adaptive(
            backend="threads", backend_workers=2,
            status_path=str(path), resource_interval=0.002,
        ))

    def test_real_run_streams_all_planes(self, tmp_path):
        path = tmp_path / "status.jsonl"
        self._record_run(path)
        planes = {
            json.loads(line)["plane"]
            for line in path.read_text().splitlines()
        }
        assert planes == {"events", "oplog", "resources"}

    def test_follow_once_renders_final_frame(self, tmp_path):
        path = tmp_path / "status.jsonl"
        self._record_run(path)
        out = io.StringIO()
        assert follow(str(path), once=True, stream=out) == 0
        frame = out.getvalue()
        assert "done." in frame
        assert "100.0%" in frame
        assert "\x1b" not in frame  # --once emits no terminal control codes

    def test_follow_live_loop_stops_on_run_end(self, tmp_path):
        path = tmp_path / "status.jsonl"
        self._record_run(path)
        out = io.StringIO()
        assert follow(str(path), interval=0.001, stream=out,
                      max_frames=50) == 0
        assert "done." in out.getvalue()

    def test_follow_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            follow(str(tmp_path / "nope.jsonl"), once=True)

    def test_follow_reports_failure_via_exit_code(self, tmp_path):
        path = tmp_path / "status.jsonl"
        path.write_text(json.dumps({
            "plane": "oplog", "component": "engine", "event": "run-failed",
            "error": "SpeculationError: boom",
        }) + "\n")
        out = io.StringIO()
        assert follow(str(path), once=True, stream=out) == 1
        assert "FAILED" in out.getvalue()

    def test_cli_run_status_then_top(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "status.jsonl"
        assert main([
            "run", "chain", "-p", "4", "--status", str(path),
        ]) == 0
        assert main(["top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "done." in out
