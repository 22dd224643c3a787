"""Retry policy: exponential backoff, reproducible jitter, deadlines.

The retry loop itself lives in :meth:`repro.oncrpc.client.RpcClient.call_raw`;
this module supplies the policy it consults.  All waiting goes through the
client's clock: under the experiment's
:class:`~repro.net.simclock.SimClock` backoff is charged as measured
virtual time (the property that lets the Figure 6/7 harness quantify
resilience overhead), while real-socket clients use a
:class:`~repro.net.simclock.WallClock` whose ``advance_s`` actually
sleeps, so backoff and ``deadline_s`` bound real elapsed time too.

Error classification follows classic ONC RPC practice: anything that means
"the server may never have seen (or we never saw the answer to) this call"
is retryable, because the server's at-most-once reply cache makes
retransmission of the same xid safe.  Anything that is a *decoded server
verdict* (``RpcReplyError`` and subclasses) is fatal: the call executed and
failed, so retrying cannot help and may hide bugs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.oncrpc.errors import RpcReplyError, RpcTransportError
from repro.xdr.errors import XdrError


def is_retryable(exc: BaseException) -> bool:
    """True if ``exc`` is safe and useful to retry with the same xid.

    Transport failures (including timeouts) and undecodable/corrupt
    replies are retryable; server verdicts (:class:`RpcReplyError`) are
    fatal.  A corrupt reply is treated like a lost one: the retransmitted
    xid hits the server's duplicate-request cache, so no work repeats.
    """
    if isinstance(exc, RpcReplyError):
        return False
    return isinstance(exc, (RpcTransportError, XdrError))


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded, seed-reproducible jitter.

    The ``attempt``-th retry (1-based) waits
    ``min(base_delay_s * MULTIPLIER**(attempt-1), MAX_DELAY_S)`` scaled by
    a jitter factor drawn uniformly from ``[1-JITTER, 1+JITTER]`` out of a
    :class:`random.Random` seeded with :attr:`seed` -- the same seed always
    produces the same backoff schedule, keeping experiments repeatable.

    ``deadline_s`` is a per-call budget of *virtual* time: once waiting
    for the next backoff would push the call past its deadline, the call
    fails with :class:`~repro.oncrpc.errors.RpcDeadlineExceeded` instead
    of sleeping further.
    """

    #: exponential growth factor between retries
    MULTIPLIER = 2.0
    #: ceiling on a single backoff delay, seconds
    MAX_DELAY_S = 0.1
    #: jitter fraction: each delay is scaled by U[0.9, 1.1]
    JITTER = 0.1

    #: total send attempts per call (first try + retries)
    max_attempts: int = 5
    #: delay before the first retry, seconds of virtual time
    base_delay_s: float = 0.0005
    #: per-call virtual-time budget (None = unbounded)
    deadline_s: float | None = 5.0
    #: seed for the jitter stream (determinism across runs)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")

    def make_rng(self) -> random.Random:
        """A fresh jitter stream; one per client keeps runs reproducible."""
        return random.Random(self.seed)

    def backoff_s(self, attempt: int, rng: random.Random | None = None) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered via ``rng``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_delay_s * self.MULTIPLIER ** (attempt - 1), self.MAX_DELAY_S)
        if rng is not None:
            raw *= 1.0 + self.JITTER * (2.0 * rng.random() - 1.0)
        return raw

    def schedule(self) -> tuple[float, ...]:
        """The jitterless backoff delays for every possible retry."""
        return tuple(self.backoff_s(i) for i in range(1, self.max_attempts))


#: sensible default used by clients that ask for "a" retry policy
DEFAULT_RETRY_POLICY = RetryPolicy()
