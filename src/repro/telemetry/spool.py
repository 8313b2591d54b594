"""The durable client-side spool: a crash-safe on-disk frame journal.

A :class:`Spool` is an append-only journal of opaque byte records —
in practice, encoded telemetry wire frames — that survives consumer
crashes.  The on-disk format is deliberately minimal::

    +----------+----------------------------------------------+
    | magic    | records ...                                  |
    | 8 B      |                                              |
    +----------+----------------------------------------------+

    record := | length (4 B, !I) | crc32 (4 B, !I) | payload |

Every record is length-prefixed and CRC-checked, so recovery after a
crash is a single forward scan: the first record whose header is
incomplete, whose payload is short, or whose CRC does not match marks
the *torn tail* — everything before it is intact, everything from it on
is truncated away.  Truncating the file at **any** byte offset therefore
yields a journal that re-opens cleanly and recovers every complete
record (the torn-write-safety property the chaos tests pin).

Durability is configurable via ``fsync_every``: ``0`` never calls
``fsync`` (the OS flushes on close — fastest, loses the tail on power
failure), ``1`` syncs after every record (slowest, loses nothing), ``N``
amortises one sync over N records.

:class:`Spool` also understands the telemetry wire format just enough to
resume a stream: :meth:`Spool.frames` decodes the journal back into
:class:`~repro.telemetry.wire.Frame` objects and :meth:`Spool.last_seq`
returns the highest sequence number on record — which is exactly what a
restarted :class:`~repro.telemetry.client.TelemetryClient` presents in
its RESUME handshake.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

from repro.errors import SpoolError

#: File magic: "PowerWire spool", format version 1.
MAGIC = b"PWSPOOL\x01"

_RECORD_HEADER = struct.Struct("!II")
RECORD_HEADER_SIZE = _RECORD_HEADER.size

#: Hard per-record bound; a corrupt length field is treated as a torn
#: tail instead of attempting a gigabyte read.
MAX_RECORD_BYTES = 64 * 1024 * 1024


def _walk(file: BinaryIO) -> Iterator[Tuple[bytes, int]]:
    """Yield ``(payload, end_offset)`` per intact record from *file*'s
    current position.

    The one reader of the record framing, for recovery and iteration
    alike.  It stops at the torn tail: a short header, a length over
    ``MAX_RECORD_BYTES``, a short payload or a CRC mismatch.
    """
    offset = file.tell()
    while True:
        header = file.read(RECORD_HEADER_SIZE)
        if len(header) < RECORD_HEADER_SIZE:
            return
        length, crc = _RECORD_HEADER.unpack(header)
        if length > MAX_RECORD_BYTES:
            return  # corrupt length: treat as torn tail
        payload = file.read(length)
        if (len(payload) < length
                or zlib.crc32(payload) & 0xFFFFFFFF != crc):
            return
        offset += RECORD_HEADER_SIZE + length
        yield payload, offset


class Spool:
    """An append-only, CRC-checked, torn-write-safe byte journal."""

    def __init__(self, path: Union[str, Path],
                 fsync_every: int = 0) -> None:
        if fsync_every < 0:
            raise SpoolError("fsync_every must be >= 0")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._lock = threading.Lock()
        self._appends_since_sync = 0
        #: Complete records found on disk when the spool was opened.
        self.recovered_records = 0
        #: Bytes of torn tail discarded during recovery (0 = clean).
        self.truncated_bytes = 0
        #: Records appended through this handle.
        self.records_appended = 0
        self._file = self._open_and_recover()

    # -- recovery -----------------------------------------------------

    def _open_and_recover(self):
        """Open the journal, scanning and truncating any torn tail."""
        if not self.path.exists():
            file = self.path.open("w+b")
            file.write(MAGIC)
            file.flush()
            return file
        file = self.path.open("r+b")
        try:
            head = file.read(len(MAGIC))
            if head != MAGIC:
                if head and not MAGIC.startswith(head):
                    raise SpoolError(
                        f"{self.path} is not a telemetry spool "
                        f"(bad magic {head!r})")
                # A crash before even the magic landed: re-initialise.
                self.truncated_bytes = len(head)
                file.seek(0)
                file.truncate(0)
                file.write(MAGIC)
                file.flush()
                return file
            good_end = len(MAGIC)
            for _payload, good_end in _walk(file):
                self.recovered_records += 1
            size = file.seek(0, 2)
            if size > good_end:
                self.truncated_bytes = size - good_end
                file.truncate(good_end)
                file.flush()
            file.seek(0, 2)
            return file
        except BaseException:
            file.close()
            raise

    # -- appending ----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._file is None

    def __len__(self) -> int:
        """Complete records on disk (recovered + appended)."""
        return self.recovered_records + self.records_appended

    def append(self, payload: bytes) -> int:
        """Durably append one record; returns the record's index."""
        if not payload:
            raise SpoolError("cannot append an empty record")
        if len(payload) > MAX_RECORD_BYTES:
            raise SpoolError(
                f"record of {len(payload)} bytes exceeds the "
                f"{MAX_RECORD_BYTES}-byte spool limit")
        with self._lock:
            if self._file is None:
                raise SpoolError("spool is closed")
            crc = zlib.crc32(payload) & 0xFFFFFFFF
            self._file.write(_RECORD_HEADER.pack(len(payload), crc))
            self._file.write(payload)
            self._file.flush()
            index = self.recovered_records + self.records_appended
            self.records_appended += 1
            self._appends_since_sync += 1
            if (self.fsync_every > 0
                    and self._appends_since_sync >= self.fsync_every):
                self._sync_locked()
            return index

    def sync(self) -> None:
        """Force the journal to stable storage now."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._sync_locked()

    def _sync_locked(self) -> None:
        os.fsync(self._file.fileno())
        self._appends_since_sync = 0

    def close(self) -> None:
        """Flush and release the journal (idempotent)."""
        with self._lock:
            file, self._file = self._file, None
        if file is not None:
            file.flush()
            file.close()

    def __enter__(self) -> "Spool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- reading ------------------------------------------------------

    def records(self) -> Iterator[bytes]:
        """Iterate every complete record currently on disk.

        Reads through a separate handle, so iteration is safe while the
        spool is open for appending (records appended after the iterator
        reaches the current end are not yielded).
        """
        with self.path.open("rb") as file:
            if file.read(len(MAGIC)) != MAGIC:
                return
            for payload, _end in _walk(file):
                yield payload

    # -- telemetry-aware helpers --------------------------------------

    def frames(self) -> List["object"]:
        """Decode the journal back into telemetry wire frames.

        Records that do not decode as single complete frames are
        skipped (the spool is a byte journal first; this helper only
        serves spools written by :class:`TelemetryClient`).
        """
        from repro.errors import WireProtocolError
        from repro.telemetry import wire
        frames = []
        for record in self.records():
            try:
                decoded = wire.FrameDecoder().feed(record)
            except WireProtocolError:
                continue
            frames.extend(decoded)
        return frames

    def resume_state(self) -> "tuple[Optional[str], Optional[int]]":
        """``(stream_epoch, last_seq)`` recovered from the journal.

        :class:`TelemetryClient` journals each server's HELLO (carrying
        its stream epoch) before that server's frames, so sequence
        numbers only count within the most recent epoch — a journal
        spanning a server restart does not resume with a stale seq.
        """
        from repro.telemetry.wire import FrameKind
        epoch: Optional[str] = None
        last: Optional[int] = None
        for frame in self.frames():
            if frame.kind is FrameKind.HELLO:
                new_epoch = frame.payload.get("epoch")
                if isinstance(new_epoch, str):
                    if new_epoch != epoch:
                        last = None
                    epoch = new_epoch
                continue
            seq = frame.payload.get("seq")
            if isinstance(seq, int) and (last is None or seq > last):
                last = seq
        return epoch, last

    def last_seq(self) -> Optional[int]:
        """The highest stream sequence number on record, if any.

        This is what a restarted consumer hands to the server's RESUME
        handshake: replay everything after this.
        """
        return self.resume_state()[1]
