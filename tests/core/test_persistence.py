"""Tests for repro.core.persistence — filter checkpoint/restore."""

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, Decision
from repro.core.persistence import (
    SnapshotCorruptionError,
    load_filter,
    restore_filter,
    save_filter,
)
from tests.conftest import make_reply, make_request


@pytest.fixture()
def warmed_filter(small_config, protected, client_addr, server_addr):
    filt = BitmapFilter(small_config, protected)
    for sport in range(1024, 1100):
        filt.process(make_request(10.0 + sport * 0.01, client_addr, server_addr,
                                  sport=sport))
    return filt


class TestRoundTrip:
    def test_bit_exact_restore(self, warmed_filter, tmp_path):
        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        restored = load_filter(path)
        for a, b in zip(warmed_filter.bitmap.vectors, restored.bitmap.vectors):
            assert a == b
        assert restored.bitmap.current_index == warmed_filter.bitmap.current_index
        assert restored.next_rotation == warmed_filter.next_rotation
        assert restored.config == warmed_filter.config
        assert restored.stats.as_dict() == warmed_filter.stats.as_dict()

    def test_restored_filter_keeps_passing_replies(
        self, warmed_filter, tmp_path, client_addr, server_addr
    ):
        """The point of checkpointing: no Te-long warm-up after restart."""
        request = make_request(10.0 + 1050 * 0.01, client_addr, server_addr,
                               sport=1050)
        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        restored = load_filter(path)
        reply = make_reply(request, request.ts + 0.5)
        assert restored.process(reply) is Decision.PASS
        # And identical verdicts to the original going forward:
        assert warmed_filter.process(reply.with_ts(reply.ts + 0.01)) is Decision.PASS

    def test_cold_filter_would_have_dropped(
        self, warmed_filter, small_config, protected, client_addr, server_addr
    ):
        request = make_request(20.0, client_addr, server_addr, sport=1050)
        cold = BitmapFilter(small_config, protected, start_time=20.0)
        assert cold.process(make_reply(request, 21.0)) is Decision.DROP

    def test_protected_space_restored(self, warmed_filter, tmp_path):
        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        restored = load_filter(path)
        assert [str(n) for n in restored.protected.networks] == [
            str(n) for n in warmed_filter.protected.networks
        ]

    def test_rotation_schedule_continues(self, warmed_filter, tmp_path):
        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        restored = load_filter(path)
        a = warmed_filter.advance_to(100.0)
        b = restored.advance_to(100.0)
        assert a == b
        assert restored.bitmap.current_index == warmed_filter.bitmap.current_index


class TestEdgeCases:
    def test_snapshot_exactly_at_rotation_boundary(self, small_config, protected,
                                                   client_addr, server_addr,
                                                   tmp_path):
        """Checkpoint at the instant a rotation fires: schedule must survive."""
        filt = BitmapFilter(small_config, protected)
        dt = small_config.rotation_interval
        filt.process(make_request(dt, client_addr, server_addr))  # rotates at dt
        assert filt.next_rotation == 2 * dt
        path = tmp_path / "boundary.npz"
        save_filter(filt, path)
        restored = load_filter(path)
        assert restored.next_rotation == 2 * dt
        assert restored.advance_to(2 * dt) == 1
        assert filt.advance_to(2 * dt) == 1
        assert restored.bitmap.current_index == filt.bitmap.current_index

    def test_nonzero_stats_and_rotations_round_trip(self, warmed_filter,
                                                    tmp_path):
        warmed_filter.advance_to(200.0)  # push the rotation counter well up
        assert warmed_filter.stats.rotations > 0
        path = tmp_path / "stats.npz"
        save_filter(warmed_filter, path)
        restored = load_filter(path)
        assert restored.stats.as_dict() == warmed_filter.stats.as_dict()
        assert restored.bitmap.rotations == warmed_filter.bitmap.rotations

    def test_in_memory_snapshot_round_trip(self, warmed_filter):
        import io

        buffer = io.BytesIO()
        save_filter(warmed_filter, buffer)
        buffer.seek(0)
        restored = load_filter(buffer)
        for a, b in zip(warmed_filter.bitmap.vectors, restored.bitmap.vectors):
            assert a == b

    def test_down_filter_refused(self, warmed_filter, tmp_path):
        warmed_filter.fail()
        with pytest.raises(ValueError):
            save_filter(warmed_filter, tmp_path / "down.npz")


class TestRestoreFilter:
    def test_catches_up_missed_rotations_and_warms_up(self, warmed_filter,
                                                      tmp_path):
        path = tmp_path / "restore.npz"
        save_filter(warmed_filter, path)
        dt = warmed_filter.config.rotation_interval
        te = warmed_filter.config.expiry_timer
        now = warmed_filter.next_rotation + 3 * dt  # 4 rotations overdue
        restored = restore_filter(path, now)
        twin = load_filter(path)
        assert twin.advance_to(now) == 4
        assert restored.bitmap.current_index == twin.bitmap.current_index
        assert restored.stats.rotations == twin.stats.rotations
        # Stale snapshot -> Te of warm-up grace by default.
        assert restored.in_warmup(now + te - 0.1)
        assert not restored.in_warmup(now + te)

    def test_fresh_snapshot_needs_no_warmup(self, warmed_filter, tmp_path):
        path = tmp_path / "fresh.npz"
        save_filter(warmed_filter, path)
        now = warmed_filter.next_rotation - 0.1  # nothing missed yet
        restored = restore_filter(path, now)
        assert not restored.in_warmup(now)

    def test_explicit_grace_overrides_default(self, warmed_filter, tmp_path):
        path = tmp_path / "grace.npz"
        save_filter(warmed_filter, path)
        now = warmed_filter.next_rotation + 100.0
        restored = restore_filter(path, now, warmup_grace=3.0)
        assert restored.in_warmup(now + 2.9)
        assert not restored.in_warmup(now + 3.0)


class TestErrors:
    def test_apd_filter_rejected(self, small_config, protected, tmp_path):
        from repro.core.apd import AdaptiveDroppingPolicy, PacketRatioIndicator

        filt = BitmapFilter(small_config, protected,
                            apd=AdaptiveDroppingPolicy(PacketRatioIndicator()))
        with pytest.raises(ValueError):
            save_filter(filt, tmp_path / "x.npz")

    def test_corrupted_vectors_rejected(self, warmed_filter, tmp_path):
        import json

        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["metadata"]))
            vectors = archive["vectors"][:, :16]  # truncate
        np.savez_compressed(path, vectors=vectors, metadata=json.dumps(meta))
        with pytest.raises(ValueError):
            load_filter(path)

    def test_bit_rot_fails_checksum(self, warmed_filter, tmp_path):
        """A single flipped byte in the vectors must be detected on load."""
        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        with np.load(path, allow_pickle=False) as archive:
            meta = archive["metadata"]
            vectors = archive["vectors"].copy()
        vectors[0, 0] ^= 0x01
        np.savez_compressed(path, vectors=vectors, metadata=meta)
        with pytest.raises(SnapshotCorruptionError):
            load_filter(path)

    def test_missing_checksum_rejected_for_v2(self, warmed_filter, tmp_path):
        import json

        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["metadata"]))
            vectors = archive["vectors"]
        del meta["vectors_sha256"]
        np.savez_compressed(path, vectors=vectors, metadata=json.dumps(meta))
        with pytest.raises(SnapshotCorruptionError):
            load_filter(path)

    def test_legacy_v1_snapshot_loads_without_checksum(self, warmed_filter,
                                                       tmp_path):
        import json

        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["metadata"]))
            vectors = archive["vectors"]
        meta["format_version"] = 1
        del meta["vectors_sha256"]
        del meta["fail_policy"]
        np.savez_compressed(path, vectors=vectors, metadata=json.dumps(meta))
        restored = load_filter(path)
        for a, b in zip(warmed_filter.bitmap.vectors, restored.bitmap.vectors):
            assert a == b

    def test_unknown_version_rejected(self, warmed_filter, tmp_path):
        import json

        path = tmp_path / "filter.npz"
        save_filter(warmed_filter, path)
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["metadata"]))
            vectors = archive["vectors"]
        meta["format_version"] = 99
        np.savez_compressed(path, vectors=vectors, metadata=json.dumps(meta))
        with pytest.raises(ValueError):
            load_filter(path)


class TestMidRunEquivalence:
    def test_save_load_mid_trace_is_transparent(self, small_config, tiny_trace,
                                                tmp_path):
        """Splitting a run across a checkpoint changes nothing.

        Run the first half of a real trace, snapshot, restore, run the
        second half — the verdicts must equal an unbroken run.
        """
        import numpy as np

        packets = tiny_trace.packets
        half = len(packets) // 2

        unbroken = BitmapFilter(small_config, tiny_trace.protected)
        expected = unbroken.process_batch(packets)

        first = BitmapFilter(small_config, tiny_trace.protected)
        v1 = first.process_batch(packets[:half])
        path = tmp_path / "mid.npz"
        save_filter(first, path)
        second = load_filter(path)
        v2 = second.process_batch(packets[half:])

        assert bool(np.array_equal(np.concatenate([v1, v2]), expected))
        assert second.stats.as_dict() == unbroken.stats.as_dict()
