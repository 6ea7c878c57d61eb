"""Wire vocabulary: labels, sweep payloads, spec serialization."""

import pytest

from repro.experiments.spec import WIRE_VERSION, SweepSpec
from repro.fabric.wire import (FabricError, parse_point_label,
                               point_label, sweep_from_wire,
                               sweep_to_wire)

from .conftest import make_stats


class TestPointLabels:
    def test_round_trip(self):
        for point in ((1, 4096), (8, 512 * 1024)):
            assert parse_point_label(point_label(point)) == point

    @pytest.mark.parametrize("label", ["", "1", "a/b", "1/2/3", "1/"])
    def test_malformed_labels_raise(self, label):
        with pytest.raises(FabricError):
            parse_point_label(label)


class TestSweepWire:
    def test_round_trip_preserves_stats(self):
        sweep = {(1, 4096): make_stats(1), (2, 8192): make_stats(2)}
        back = sweep_from_wire(sweep_to_wire(sweep))
        assert set(back) == set(sweep)
        for point, stats in sweep.items():
            assert back[point].as_dict() == stats.as_dict()

    def test_stats_with_a_digest_decode_equal(self):
        """A worker from a build whose points carried a probe sends an
        ``instrument`` digest with every point: it is dropped."""
        wire = sweep_to_wire({(1, 4096): make_stats(1)})
        assert "instrument" not in wire["1/4096"]
        wire["1/4096"]["instrument"] = {"bus_peak_utilization": 0.5}
        assert sweep_from_wire(wire) == {(1, 4096): make_stats(1)}

    def test_empty_and_none(self):
        assert sweep_from_wire({}) == {}
        assert sweep_from_wire(None) == {}


class TestSpecWire:
    def test_round_trip_preserves_identity_and_execution(self, tiny_spec):
        back = SweepSpec.from_wire(tiny_spec.to_wire())
        assert back.signature() == tiny_spec.signature()
        assert back.describe() == tiny_spec.describe()
        assert back.configs().keys() == tiny_spec.configs().keys()
        # Execution knobs survive too: the worker honours them.
        assert back == tiny_spec
        assert back.max_attempts == tiny_spec.max_attempts
        assert back.retry_backoff == tiny_spec.retry_backoff

    def test_point_keys_survive_the_wire(self, tiny_spec):
        """The key-compatibility guarantee: a spec rebuilt from its
        wire payload addresses the very same store entries."""
        back = SweepSpec.from_wire(tiny_spec.to_wire())
        for point, config in tiny_spec.configs().items():
            assert (back.point_key(back.configs()[point])
                    == tiny_spec.point_key(config))

    def test_a_1_5_payload_naming_the_engine_decodes_to_the_same_spec(
            self, tiny_spec):
        """1.5 shipped ``backend`` and ``fused`` on the wire; 1.6 has
        neither field (the worker's own host picks the engine, and the
        ladder runs wherever it applies).  A 1.5 client's payload is
        accepted, both keys ignored, and it addresses the same journal
        and the same store entries; a 1.6 payload carries neither."""
        payload = tiny_spec.to_wire()
        assert "backend" not in payload and "fused" not in payload
        old = SweepSpec.from_wire(dict(payload, backend="numpy",
                                       fused=False))
        assert old == tiny_spec
        assert old.signature() == tiny_spec.signature()
        for point, config in tiny_spec.configs().items():
            assert (old.point_key(old.configs()[point])
                    == tiny_spec.point_key(config))

    @pytest.mark.parametrize("instrument", [True, False])
    def test_a_payload_naming_a_probe_decodes_to_the_same_spec(
            self, tiny_spec, instrument):
        """Payloads used to carry ``instrument``; a point carries no
        probe now, so the key is accepted, ignored, and not sent."""
        payload = tiny_spec.to_wire()
        assert "instrument" not in payload
        old = SweepSpec.from_wire(dict(payload, instrument=instrument))
        assert old == tiny_spec
        assert old.signature() == tiny_spec.signature()

    def test_wire_payload_is_json_safe(self, tiny_spec):
        import json
        payload = tiny_spec.to_wire()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["version"] == WIRE_VERSION

    def test_version_mismatch_rejected(self, tiny_spec):
        payload = tiny_spec.to_wire()
        payload["version"] = WIRE_VERSION + 1
        with pytest.raises(ValueError, match="wire version"):
            SweepSpec.from_wire(payload)

    @pytest.mark.parametrize("mangle", [
        lambda p: p.pop("benchmark"),
        lambda p: p.pop("profile"),
        lambda p: p.__setitem__("profile", "not-a-dict"),
        # a 1.4 client's: the kind is gone, the broker never sees it
        lambda p: p.__setitem__("kind", "miss-surface"),
    ])
    def test_malformed_payloads_rejected(self, tiny_spec, mangle):
        payload = tiny_spec.to_wire()
        mangle(payload)
        with pytest.raises((ValueError, TypeError)):
            SweepSpec.from_wire(payload)
