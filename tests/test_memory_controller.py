"""Unit tests for the memory controller (repro.memory.controller)."""

import pytest

from repro.config import table1_system
from repro.memory.controller import MemoryController
from repro.memory.request import AccessKind, MemRequest, Stream
from repro.sim import Environment


def make_mc(env, policy="compute-priority", quantum=1024, record=False,
            n_channels=2):
    import dataclasses

    system = table1_system().with_fidelity(
        quantum_bytes=quantum, record_traffic=record)
    system = system.replace(
        memory=dataclasses.replace(system.memory, n_channels=n_channels))
    return MemoryController(env, system, policy_name=policy)


def test_submit_returns_completion_event():
    env = Environment()
    mc = make_mc(env)
    request = MemRequest(AccessKind.READ, Stream.COMPUTE, 512, "gemm")
    done = mc.submit(request)
    env.run()
    assert done.fired
    assert request.serviced_at is not None


def test_submit_bulk_quantizes():
    env = Environment()
    mc = make_mc(env, quantum=1024)
    events = mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 2500, "gemm")
    assert len(events) == 3  # 1024 + 1024 + 452
    env.run()
    assert mc.counters.get("gemm.read") == 2500


def test_submit_bulk_zero_bytes_is_noop():
    env = Environment()
    mc = make_mc(env)
    assert mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 0, "gemm") == []


def test_counters_accumulate_by_label_and_kind():
    env = Environment()
    mc = make_mc(env)
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 1000, "gemm")
    mc.submit_bulk(AccessKind.WRITE, Stream.COMPUTE, 2000, "gemm")
    mc.submit_bulk(AccessKind.UPDATE, Stream.COMM, 3000, "rs")
    env.run()
    assert mc.counters.get("gemm.read") == 1000
    assert mc.counters.get("gemm.write") == 2000
    assert mc.counters.get("rs.update") == 3000
    assert mc.total_bytes("gemm") == 3000
    assert mc.total_bytes() == 6000


def test_channel_interleaving_uses_all_channels():
    env = Environment()
    mc = make_mc(env, n_channels=2)
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 8 * 1024, "gemm")
    env.run()
    assert all(c.bytes_serviced > 0 for c in mc.channels)


def test_aggregate_bandwidth_matches_config():
    """N quanta spread over channels should drain at ~HBM bandwidth."""
    env = Environment()
    mc = make_mc(env, quantum=64 * 1024, n_channels=8)
    total = 8 * 64 * 1024
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, total, "gemm")
    env.run()
    expected = total / mc.config.memory.effective_bandwidth
    assert env.now == pytest.approx(expected, rel=0.01)


def test_drain_waits_for_stream():
    env = Environment()
    mc = make_mc(env)
    mc.submit_bulk(AccessKind.WRITE, Stream.COMPUTE, 4096, "gemm")
    drained_at = []

    def waiter():
        yield mc.drain(Stream.COMPUTE)
        drained_at.append(env.now)

    env.process(waiter())
    env.run()
    assert drained_at and drained_at[0] > 0
    assert mc.outstanding(Stream.COMPUTE) == 0


def test_drain_on_idle_stream_fires_immediately():
    env = Environment()
    mc = make_mc(env)
    fired = []

    def waiter():
        yield mc.drain(Stream.COMM)
        fired.append(env.now)

    env.process(waiter())
    env.run()
    assert fired == [0]


def test_drain_all_covers_both_streams():
    env = Environment()
    mc = make_mc(env)
    mc.submit_bulk(AccessKind.WRITE, Stream.COMPUTE, 2048, "gemm")
    mc.submit_bulk(AccessKind.UPDATE, Stream.COMM, 2048, "rs")
    done = []

    def waiter():
        yield mc.drain_all()
        done.append(env.now)

    env.process(waiter())
    env.run()
    assert done and mc.idle


def test_tracker_observer_sees_writes_and_updates_only():
    env = Environment()
    mc = make_mc(env)
    seen = []
    mc.add_tracker_observer(lambda r: seen.append(r.kind))
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 1024, "gemm")
    mc.submit_bulk(AccessKind.WRITE, Stream.COMPUTE, 1024, "gemm",
                   wg_id=3, wf_id=1)
    mc.submit_bulk(AccessKind.UPDATE, Stream.COMM, 1024, "rs",
                   wg_id=3, wf_id=2)
    env.run()
    assert AccessKind.READ not in seen
    assert seen.count(AccessKind.WRITE) == 1
    assert seen.count(AccessKind.UPDATE) == 1


def test_calibration_computes_intensity_and_forwards():
    env = Environment()
    mc = make_mc(env, policy="mca")
    intensity = mc.calibrate(read_bytes=500_000, write_bytes=500_000,
                             duration_ns=2000)
    # 1e6 bytes / 2000 ns = 500 B/ns over a 650 B/ns effective HBM -> 0.77.
    assert intensity == pytest.approx(500.0 / 650.0)
    for channel in mc.channels:
        assert channel.policy.threshold == 5  # memory hungry -> strict


def test_calibration_validation():
    env = Environment()
    mc = make_mc(env, policy="mca")
    with pytest.raises(ValueError):
        mc.calibrate(1, 1, 0)


def test_traffic_recording_and_merge():
    env = Environment()
    mc = make_mc(env, record=True)
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 2048, "gemm")
    mc.submit_bulk(AccessKind.WRITE, Stream.COMPUTE, 1024, "gemm")
    env.run()
    assert mc.traffic["gemm.read"].total() == 2048
    merged = mc.merged_traffic(["gemm.read", "gemm.write"])
    assert merged.total() == 3072
    # Merged series is time-ordered.
    assert merged.times == sorted(merged.times)


def test_traffic_not_recorded_by_default():
    env = Environment()
    mc = make_mc(env, record=False)
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 2048, "gemm")
    env.run()
    assert mc.traffic == {}


def test_submit_bulk_full_quanta_then_rounded_up_remainder():
    env = Environment()
    mc = make_mc(env, quantum=1024)
    events = mc.submit_bulk(AccessKind.WRITE, Stream.COMPUTE, 2500.25, "gemm",
                            wg_id=7, chunk_id=2)
    env.run()
    requests = [event.value for event in events]
    assert [r.nbytes for r in requests] == [1024, 1024, 453]
    assert [r.req_id for r in requests] == sorted(r.req_id for r in requests)
    assert all(r.counter_key == "gemm.write" and r.wg_id == 7
               and r.chunk_id == 2 and r.wf_id is None for r in requests)
    assert mc.counters.get("gemm.write") == 2501


def test_round_robin_channel_index_carries_over_calls():
    env = Environment()
    mc = make_mc(env, quantum=1024, n_channels=3)
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 1024, "gemm")  # ch0
    mc.submit_bulk(AccessKind.READ, Stream.COMM, 2048, "rs")  # ch1, ch2
    mc.submit(MemRequest(AccessKind.READ, Stream.COMPUTE, 100, "gemm"))  # ch0
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 1024, "gemm")  # ch1
    assert [c.bytes_enqueued for c in mc.channels] == [1124, 2048, 1024]
    env.run()
    assert [c.bytes_serviced for c in mc.channels] == [1124, 2048, 1024]


def test_bulk_and_single_submits_keep_outstanding_counts():
    env = Environment()
    mc = make_mc(env, quantum=1024)
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 3000, "gemm")
    mc.submit_bulk(AccessKind.UPDATE, Stream.COMM, 2048, "rs")
    mc.submit(MemRequest(AccessKind.WRITE, Stream.COMM, 10, "dma"))
    assert mc.outstanding(Stream.COMPUTE) == 3
    assert mc.outstanding(Stream.COMM) == 3
    compute_drained = mc.drain(Stream.COMPUTE)
    comm_drained = mc.drain(Stream.COMM)
    env.run()
    assert compute_drained.fired and comm_drained.fired
    assert mc.outstanding(Stream.COMPUTE) == mc.outstanding(Stream.COMM) == 0
    assert mc.drain(Stream.COMPUTE).triggered  # idle stream: immediate


def test_merged_traffic_accepts_an_iterator():
    env = Environment()
    mc = make_mc(env, record=True)
    mc.submit_bulk(AccessKind.READ, Stream.COMPUTE, 2048, "gemm")
    mc.submit_bulk(AccessKind.WRITE, Stream.COMPUTE, 1024, "gemm")
    env.run()
    keys = ["gemm.read", "gemm.write"]
    from_list = mc.merged_traffic(keys)
    from_iter = mc.merged_traffic(key for key in keys)
    assert from_iter.name == from_list.name == "gemm.read+gemm.write"
    assert from_iter.times == from_list.times
    assert from_iter.values == from_list.values
    assert from_iter.total() == 3072
