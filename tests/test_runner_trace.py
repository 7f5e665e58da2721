"""Tests for the ``runner trace`` subcommand and ``--trace`` plumbing."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.trace import TraceRecorder
from repro.config import table1_system
from repro.experiments import runner
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import RingTopology
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.t3.fusion import FusedGEMMRS
from repro.trace.cli import main as trace_cli
from repro.trace.passes import PASSES
from repro.trace.query import TraceQuery


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    env = Environment()
    registry = MetricsRegistry()
    env.obs = registry
    env.trace = TraceRecorder(record_dram=True)
    system = table1_system(n_gpus=4).with_fidelity(quantum_bytes=16 * 1024)
    topo = RingTopology(env, system)
    FusedGEMMRS(topo, GEMMShape(1024, 512, 256), n_cus=4).run()
    path = tmp_path_factory.mktemp("cli") / "run.trace.json"
    env.trace.save(str(path), registry=registry)
    return path


# ----------------------------------------------------------- trace CLI

def test_default_runs_every_pass(trace_file, capsys):
    assert trace_cli([str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "compute" in out and "critical path" in out


def test_list_passes_needs_no_file(capsys):
    assert trace_cli(["--list-passes"]) == 0
    out = capsys.readouterr().out
    for name in PASSES:
        assert name in out


def test_json_to_stdout(trace_file, capsys):
    assert trace_cli([str(trace_file), "--pass", "summary",
                      "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["trace"] == str(trace_file)
    assert [p["pass"] for p in payload["passes"]] == ["summary"]


def test_json_to_file_creates_parents(trace_file, tmp_path, capsys):
    target = tmp_path / "deep" / "dir" / "report.json"
    assert trace_cli([str(trace_file), "--pass", "decomposition",
                      "--json", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["passes"][0]["pass"] == "decomposition"
    assert payload["passes"][0]["hidden_ns"] >= 0


def test_timeline_flag_renders(trace_file, capsys):
    assert trace_cli([str(trace_file), "--pass", "summary",
                      "--timeline", "--width", "80"]) == 0
    out = capsys.readouterr().out
    assert "(us)" in out


def test_tracks_filter_and_window(trace_file, capsys):
    assert trace_cli([str(trace_file), "--pass", "summary", "--timeline",
                      "--tracks", "dma", "--window", "0:20"]) == 0
    out = capsys.readouterr().out
    assert ".dma" in out


def test_missing_file_is_an_error(capsys):
    assert trace_cli(["/nonexistent/run.trace.json"]) == 2
    assert "no such trace file" in capsys.readouterr().err


#: name -> the text of a file that is not a trace.
_MALFORMED = {
    "string": '"hello"',
    "number": "3",
    "int-events": '{"traceEvents": [1, 2]}',
    "object-events": '{"traceEvents": {"ph": "X"}}',
    "span-args-list": '{"traceEvents": [{"ph": "X", "args": [1]}]}',
    "counter-args-list": '[{"ph": "C", "name": "q", "args": [1, 2]}]',
    "t3-string": '{"traceEvents": [], "t3": "v1"}',
    "scopes-int": '{"traceEvents": [], "t3": {"registry": {"scopes": 5}}}',
    "counter-string": '{"traceEvents": [], "t3": {"registry": {"scopes": '
                      '[{"component": "arbiter", "gpu": 0, '
                      '"counters": {"comm_grants.t10": "x"}}]}}}',
    "observation-string": '{"traceEvents": [], "t3": {"registry": {"scopes": '
                          '[{"component": "tracker", "observations": '
                          '{"trigger_latency_ns": {"count": 1, "total": "x", '
                          '"min": 0, "max": 0}}}]}}}',
    "invalid-json": '{"traceEvents": [',
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_trace_files_fail_cleanly(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(_MALFORMED[name])
    with pytest.raises(ValueError, match=str(path)):
        TraceQuery.from_file(str(path))
    with pytest.raises(ValueError, match=str(path)):
        TraceRecorder.load(str(path))
    assert trace_cli([str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_a_bad_event_is_named_by_its_index(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('[{"ph": "X", "ts": 1, "dur": 2}, '
                    '{"ph": "X", "ts": 1, "dur": [2]}]')
    with pytest.raises(ValueError, match="event 1: dur is \\[2\\]"):
        TraceQuery.from_file(str(path))


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=3))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(("traceEvents", "t3", "registry", "ph", "args"))
        | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)
#: Chrome events whose every field may be of the wrong JSON type.
_EVENT = st.fixed_dictionaries(
    {"ph": st.sampled_from(("X", "i", "C", "M")) | _SCALARS},
    optional={
        "name": st.just("thread_name") | _SCALARS,
        "ts": _SCALARS, "dur": _SCALARS, "pid": _JSON, "tid": _JSON,
        "args": _JSON | st.dictionaries(
            st.sampled_from(("start_ns", "end_ns", "t_ns", "value",
                             "name")), _JSON, max_size=4),
    })


@settings(max_examples=200, deadline=None)
@given(payload=_JSON | st.lists(_EVENT | _JSON, max_size=4) | st.lists(
    _EVENT, max_size=4).map(lambda events: {"traceEvents": events}))
def test_any_json_loads_or_raises_value_error(payload, tmp_path_factory):
    """Both loaders read any JSON value as a trace or reject it with
    ValueError; nothing else escapes."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.trace.json"
    path.write_text(json.dumps(payload))
    for load in (TraceQuery.from_file, TraceRecorder.load):
        try:
            load(str(path))
        except ValueError:
            pass


def test_unknown_pass_is_an_error(trace_file, capsys):
    assert trace_cli([str(trace_file), "--pass", "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_unmatched_tracks_is_an_error(trace_file, capsys):
    assert trace_cli([str(trace_file), "--pass", "summary", "--timeline",
                      "--tracks", "zzz"]) == 2
    assert "no tracks match" in capsys.readouterr().err


def test_bad_window_rejected(trace_file, capsys):
    with pytest.raises(SystemExit):
        trace_cli([str(trace_file), "--window", "20:0"])
    assert "LO < HI" in capsys.readouterr().err


# ------------------------------------------------- runner integration

def test_runner_delegates_trace_subcommand(trace_file, capsys):
    assert runner.main(["trace", str(trace_file),
                        "--pass", "summary"]) == 0
    assert "spans by category" in capsys.readouterr().out


def test_runner_trace_rejects_all(capsys):
    assert runner.main(["all", "--trace", "out.json"]) == 2
    assert "single experiment" in capsys.readouterr().err


def test_runner_trace_rejects_unsupported_experiment(capsys):
    assert runner.main(["figure16", "--trace", "out.json"]) == 2
    err = capsys.readouterr().err
    assert "not supported" in err and "scaleout" in err


def test_trace_capable_covers_wired_experiments():
    capable = {name for name in runner.EXPERIMENTS
               if runner._trace_capable(name)}
    assert {"scaleout", "chaos", "fault-sweep"} <= capable
    assert "figure16" not in capable
