"""Broker lease lifecycle: heartbeats, expiry, work stealing,
idempotent duplicate completion."""

import pytest

from repro.fabric.broker import Broker
from repro.fabric.store import ArtifactStore
from repro.fabric.wire import FabricError, point_label, sweep_from_wire

from .conftest import FakeClock, make_stats


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def broker(clock):
    return Broker(ArtifactStore.in_memory(), lease_ttl=30.0,
                  max_unit_attempts=3, clock=clock)


def _complete_unit(broker, worker, lease, seed0=0):
    """Report every point of ``lease`` as computed."""
    labels = [f"{lease['procs']}/{paper_bytes}"
              for paper_bytes in lease["ladder"]]
    results = {label: make_stats(seed0 + i).as_dict()
               for i, label in enumerate(labels)}
    return broker.complete(worker, lease["unit"], results=results)


class TestSubmitAndSharding:
    def test_one_unit_per_row(self, broker, tiny_spec):
        handle = broker.submit(tiny_spec)
        assert handle["total"] == 4
        assert handle["pending_units"] == len(tiny_spec.procs)
        assert handle["state"] == "running"

    def test_row_units_keep_the_ladder_together(self, broker, tiny_spec):
        broker.submit(tiny_spec)
        lease = broker.lease("w1")
        assert lease["ladder"] == sorted(lease["ladder"])
        assert len(lease["ladder"]) == len(tiny_spec.ladder)
        assert lease["spec"] == tiny_spec.to_wire()

    def test_warm_submission_creates_no_units(self, broker, tiny_spec):
        for point, config in tiny_spec.configs().items():
            broker.store.publish(tiny_spec.point_key(config),
                                 make_stats(point[0]))
        handle = broker.submit(tiny_spec)
        assert handle["state"] == "done"
        assert handle["pending_units"] == 0
        assert handle["store_hits"] == handle["total"] == 4
        assert broker.lease("w1") is None
        events = broker.events_since(handle["job"], 0, timeout=0)[0]
        statuses = [e["status"] for e in events if e["event"] == "point"]
        assert statuses == ["store"] * 4


class TestLeaseLifecycle:
    def test_heartbeat_keeps_a_slow_worker_leased(self, broker, clock,
                                                  tiny_spec):
        broker.submit(tiny_spec)
        lease = broker.lease("w1")
        broker.lease("w2")               # drain the other unit
        for _ in range(4):
            clock.advance(20.0)          # 80s total, ttl is 30s
            broker.heartbeat("w1")
            broker.heartbeat("w2")
        assert broker.lease("w3") is None    # nothing expired to steal
        # w1's unit was never stolen: completing it still lands.
        done = _complete_unit(broker, "w1", lease)
        assert done["stale"] is False

    def test_expiry_releases_to_second_worker(self, broker, clock,
                                              tiny_spec):
        handle = broker.submit(tiny_spec)
        first = broker.lease("w1")
        assert first["attempt"] == 1
        clock.advance(31.0)              # w1 went silent past the ttl
        # w2's poll reaps the expired lease and steals the unit.
        leases = [broker.lease("w2"), broker.lease("w2")]
        stolen = [l for l in leases if l and l["unit"] == first["unit"]]
        assert stolen and stolen[0]["attempt"] == 2
        events = broker.events_since(handle["job"], 0, timeout=0)[0]
        assert any(e.get("status") == "expired" for e in events)

    def test_duplicate_completion_is_idempotent(self, broker, clock,
                                                tiny_spec):
        """Heartbeat expiry -> re-lease -> both workers complete: no
        double-write, no lost point."""
        handle = broker.submit(tiny_spec)
        first = broker.lease("w1")       # w1 takes both units... and stalls
        broker.lease("w1")
        clock.advance(31.0)
        second = broker.lease("w2")      # w2 steals the first one
        assert second["unit"] == first["unit"]

        done2 = _complete_unit(broker, "w2", second, seed0=10)
        assert done2["stale"] is False and done2["settled"] == len(
            second["ladder"])
        puts_after_w2 = broker.store.results.puts

        # The straggler wakes up and reports the same unit.
        done1 = _complete_unit(broker, "w1", first, seed0=90)
        assert done1["stale"] is True
        assert done1["settled"] == 0                  # nothing re-settled
        assert broker.store.results.puts == puts_after_w2  # no double-write

        # w2's results stand; w1's conflicting payload was dropped.
        job = broker.jobs[handle["job"]]
        row_point = (second["procs"], second["ladder"][0])
        assert job.results[row_point].as_dict() == make_stats(10).as_dict()

        # ...and no point was lost: the rest of the grid still resolves.
        other = broker.lease("w3")
        _complete_unit(broker, "w3", other, seed0=50)
        result = broker.result(handle["job"], timeout=1.0)
        assert result is not None
        assert len(sweep_from_wire(result["points"])) == 4
        assert result["quarantined"] == {}

    def test_attempt_budget_quarantines_the_row(self, clock, tiny_spec):
        broker = Broker(ArtifactStore.in_memory(), lease_ttl=30.0,
                        max_unit_attempts=2, clock=clock)
        handle = broker.submit(tiny_spec)
        units = set()
        for attempt in range(2):
            lease = broker.lease(f"w{attempt}")
            while lease is not None:
                units.add(lease["unit"])
                lease = broker.lease(f"w{attempt}")
            clock.advance(31.0)
        broker.lease("w-final")          # triggers the final reap
        status = broker.status(handle["job"])
        assert status["state"] == "done"
        assert len(status["quarantined"]) == 4
        assert all("lease expired" in reason
                   for reason in status["quarantined"].values())

    def test_fail_requeues_within_budget(self, broker, tiny_spec):
        broker.submit(tiny_spec)
        lease = broker.lease("w1")
        broker.fail("w1", lease["unit"], "worker exploded")
        leases = [broker.lease("w2"), broker.lease("w2")]
        stolen = [l for l in leases if l and l["unit"] == lease["unit"]]
        assert stolen and stolen[0]["attempt"] == 2
        assert broker.registry.counters["fabric.units.failed"] == 1

    def test_progress_with_published_stats_settles_points(self, broker,
                                                          tiny_spec):
        handle = broker.submit(tiny_spec)
        lease = broker.lease("w1")
        procs = lease["procs"]
        for i, paper_bytes in enumerate(lease["ladder"]):
            point = (procs, paper_bytes)
            key = tiny_spec.point_key(tiny_spec.configs()[point])
            broker.store.publish(key, make_stats(i))
            broker.progress("w1", lease["unit"], point_label(point),
                            "computed")
        # Every point of the unit settled via the store: the unit is
        # done without an explicit complete() call.
        assert broker._units[lease["unit"]].state == "done"
        status = broker.status(handle["job"])
        assert status["done"] == len(lease["ladder"])


class TestErrors:
    def test_unknown_job(self, broker):
        with pytest.raises(FabricError, match="unknown job"):
            broker.status("nope")

    def test_unknown_unit(self, broker):
        with pytest.raises(FabricError, match="unknown work unit"):
            broker.complete("w1", "nope", results={})

    def test_foreign_point_label_rejected(self, broker, tiny_spec):
        broker.submit(tiny_spec)
        lease = broker.lease("w1")
        with pytest.raises(FabricError, match="not in job"):
            broker.progress("w1", lease["unit"], "64/64", "computed")
