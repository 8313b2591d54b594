"""Durable spool tests: CRC-checked records, torn-tail recovery at any
byte offset, and epoch-aware resume-state reconstruction.

The central property (pinned by ``test_truncation_at_every_byte_offset``)
is the crash-safety contract: truncating the journal at *any* byte
offset yields a file that re-opens cleanly and recovers exactly the
records that were completely written before the cut.
"""

import pytest
from hypothesis import given

from repro.errors import SpoolError
from repro.telemetry import wire
from repro.telemetry.spool import (MAGIC, MAX_RECORD_BYTES,
                                   RECORD_HEADER_SIZE, Spool)
from repro.telemetry.wire import FrameKind
from tests.strategies import (default_settings, spool_payload_lists,
                              torn_journals)

pytestmark = [pytest.mark.telemetry, pytest.mark.chaos]


class TestRoundTrip:

    def test_append_and_read_back(self, tmp_path):
        with Spool(tmp_path / "s.spool") as spool:
            assert spool.append(b"alpha") == 0
            assert spool.append(b"beta") == 1
            assert list(spool.records()) == [b"alpha", b"beta"]
            assert len(spool) == 2

    def test_reopen_recovers_records(self, tmp_path):
        path = tmp_path / "s.spool"
        with Spool(path) as spool:
            spool.append(b"one")
            spool.append(b"two")
        reopened = Spool(path)
        assert reopened.recovered_records == 2
        assert reopened.truncated_bytes == 0
        assert list(reopened.records()) == [b"one", b"two"]
        # Appending after recovery continues the journal.
        assert reopened.append(b"three") == 2
        assert list(reopened.records()) == [b"one", b"two", b"three"]
        reopened.close()

    def test_iteration_safe_while_open(self, tmp_path):
        spool = Spool(tmp_path / "s.spool")
        spool.append(b"a")
        iterated = list(spool.records())
        spool.append(b"b")
        assert iterated == [b"a"]
        assert list(spool.records()) == [b"a", b"b"]
        spool.close()


class TestValidation:

    def test_rejects_negative_fsync_every(self, tmp_path):
        with pytest.raises(SpoolError):
            Spool(tmp_path / "s.spool", fsync_every=-1)

    def test_rejects_empty_record(self, tmp_path):
        with Spool(tmp_path / "s.spool") as spool:
            with pytest.raises(SpoolError):
                spool.append(b"")

    def test_rejects_oversized_record(self, tmp_path):
        with Spool(tmp_path / "s.spool") as spool:
            with pytest.raises(SpoolError, match="exceeds"):
                # Fake the length check without allocating 64 MiB.
                spool.append(b"\x00" * (MAX_RECORD_BYTES + 1))

    def test_append_after_close_raises(self, tmp_path):
        spool = Spool(tmp_path / "s.spool")
        spool.close()
        assert spool.closed
        with pytest.raises(SpoolError):
            spool.append(b"late")
        spool.close()  # idempotent

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "notaspool"
        path.write_bytes(b"definitely not a spool file")
        with pytest.raises(SpoolError, match="bad magic"):
            Spool(path)

    def test_fsync_every_batches(self, tmp_path):
        with Spool(tmp_path / "s.spool", fsync_every=2) as spool:
            for index in range(5):
                spool.append(b"%d" % index)
            spool.sync()
        with Spool(tmp_path / "s.spool") as spool:
            assert spool.recovered_records == 5


class TestTornWrites:

    def _build(self, tmp_path, payloads):
        path = tmp_path / "s.spool"
        with Spool(path) as spool:
            for payload in payloads:
                spool.append(payload)
        return path

    def test_truncation_at_every_byte_offset(self, tmp_path):
        """The crash-safety property: any prefix recovers cleanly."""
        payloads = [b"r0", b"record-one", b"rr2", b"x" * 40, b"tail-rec"]
        source = self._build(tmp_path, payloads)
        blob = source.read_bytes()
        # Byte offsets at which each record becomes complete.
        boundaries = []
        offset = len(MAGIC)
        for payload in payloads:
            offset += RECORD_HEADER_SIZE + len(payload)
            boundaries.append(offset)
        assert boundaries[-1] == len(blob)

        for cut in range(len(blob) + 1):
            torn = tmp_path / "torn.spool"
            torn.write_bytes(blob[:cut])
            spool = Spool(torn)
            expected = sum(1 for end in boundaries if end <= cut)
            assert spool.recovered_records == expected, f"cut at {cut}"
            assert list(spool.records()) == payloads[:expected]
            if cut >= len(MAGIC):
                good_end = ([len(MAGIC)]
                            + [b for b in boundaries if b <= cut])[-1]
                assert spool.truncated_bytes == cut - good_end
            # The recovered journal accepts new appends.
            spool.append(b"after-crash")
            assert list(spool.records()) == payloads[:expected] \
                + [b"after-crash"]
            spool.close()
            torn.unlink()

    def test_crc_corruption_cuts_the_tail(self, tmp_path):
        source = self._build(tmp_path, [b"good-0", b"good-1", b"good-2"])
        blob = bytearray(source.read_bytes())
        # Flip one payload byte of the middle record.
        middle = len(MAGIC) + (RECORD_HEADER_SIZE + 6) + RECORD_HEADER_SIZE
        blob[middle] ^= 0xFF
        source.write_bytes(bytes(blob))
        spool = Spool(source)
        assert spool.recovered_records == 1
        assert list(spool.records()) == [b"good-0"]
        spool.close()

    def test_corrupt_length_field_is_a_torn_tail(self, tmp_path):
        source = self._build(tmp_path, [b"good-0"])
        with source.open("ab") as file:
            file.write(b"\xFF\xFF\xFF\xFF\x00\x00\x00\x00payloadish")
        spool = Spool(source)
        assert spool.recovered_records == 1
        assert spool.truncated_bytes > 0
        spool.close()

    @given(payloads=spool_payload_lists)
    @default_settings
    def test_arbitrary_payloads_roundtrip(self, tmp_path_factory, payloads):
        tmp_path = tmp_path_factory.mktemp("spool-prop")
        source = self._build(tmp_path, payloads)
        spool = Spool(source)
        assert spool.recovered_records == len(payloads)
        assert list(spool.records()) == payloads
        spool.close()

    @given(journal=torn_journals())
    @default_settings
    def test_arbitrary_torn_tail_recovers_prefix(self, tmp_path_factory,
                                                 journal):
        payloads, fraction = journal
        tmp_path = tmp_path_factory.mktemp("spool-torn")
        blob = self._build(tmp_path, payloads).read_bytes()
        cut = int(len(blob) * fraction)
        torn = tmp_path / "torn.spool"
        torn.write_bytes(blob[:cut])
        spool = Spool(torn)
        recovered = list(spool.records())
        # Recovery yields a clean prefix of what was fully written.
        assert recovered == payloads[:len(recovered)]
        assert spool.recovered_records == len(recovered)
        # And appending after recovery continues the journal.
        spool.append(b"after-crash")
        assert list(spool.records())[-1] == b"after-crash"
        spool.close()
        torn.unlink()


class TestResumeState:

    def _hello(self, epoch):
        return wire.encode_frame(FrameKind.HELLO, {"epoch": epoch})

    def _report(self, seq, time_s=1.0):
        from repro.core.messages import AggregatedPowerReport
        report = AggregatedPowerReport(
            time_s=time_s, period_s=1.0, by_pid={100: 5.0},
            idle_w=31.48, formula="hpc", gap=False)
        return wire.report_frame(report, seq=seq)

    def test_empty_spool_has_no_state(self, tmp_path):
        with Spool(tmp_path / "s.spool") as spool:
            assert spool.resume_state() == (None, None)
            assert spool.last_seq() is None

    def test_highest_seq_wins(self, tmp_path):
        with Spool(tmp_path / "s.spool") as spool:
            spool.append(self._hello("epoch-a"))
            for seq in (0, 1, 2):
                spool.append(self._report(seq))
            assert spool.resume_state() == ("epoch-a", 2)
            assert spool.last_seq() == 2

    def test_epoch_change_resets_seq_tracking(self, tmp_path):
        """A journal spanning a server restart resumes in the new
        server's sequence space, not with the stale high-water mark."""
        with Spool(tmp_path / "s.spool") as spool:
            spool.append(self._hello("epoch-a"))
            for seq in (0, 1, 2, 3, 4):
                spool.append(self._report(seq))
            spool.append(self._hello("epoch-b"))
            spool.append(self._report(0))
            assert spool.resume_state() == ("epoch-b", 0)

    def test_epoch_with_no_frames_yet(self, tmp_path):
        with Spool(tmp_path / "s.spool") as spool:
            spool.append(self._hello("epoch-a"))
            spool.append(self._report(7))
            spool.append(self._hello("epoch-b"))
            assert spool.resume_state() == ("epoch-b", None)

    def test_non_frame_records_are_skipped(self, tmp_path):
        with Spool(tmp_path / "s.spool") as spool:
            spool.append(b"not a frame at all")
            spool.append(self._report(3))
            assert spool.last_seq() == 3
