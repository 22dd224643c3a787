"""Cricket-layer exceptions (thin: most errors surface as CudaError)."""

from __future__ import annotations


class CricketError(Exception):
    """Base class for Cricket-layer failures."""


class CheckpointError(CricketError):
    """Snapshot or restore failed (model mismatch, corrupt blob, ...)."""


class CheckpointFormatError(CheckpointError):
    """A checkpoint blob or container failed structural validation.

    Raised *before* any state is touched: bad magic, unsupported version,
    truncation, or a CRC32 mismatch.  ``offset`` is the byte offset of the
    first offending structure, so a torn write is distinguishable from a
    flipped bit in the middle of a section.
    """

    def __init__(self, message: str, *, offset: int = 0) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class MigrationError(CricketError):
    """Live migration failed or was driven through an illegal transition."""


class MigrationChannelError(MigrationError):
    """The migration channel broke (disconnect); reconnect and resume."""


class ChunkRejectedError(MigrationError):
    """The receiver refused a chunk whose CRC32 trailer mismatched."""
