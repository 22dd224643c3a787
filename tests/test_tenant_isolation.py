"""Tenant isolation: a device pointer works only for the session that owns it.

The server records every allocation in its creator's session ledger, but
nothing checks that ledger when a pointer is used: any tenant can read,
write and free any other tenant's memory (ROADMAP item 1).  The test
below states the intended behaviour and is a strict ``xfail`` until the
ownership check lands.
"""

import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cuda import constants as C
from repro.cuda.errors import CudaError


def outcome(call):
    """What ``call`` returns, or the code of the ``CudaError`` it raises."""
    try:
        return call()
    except CudaError as err:
        return err.code


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a foreign pointer is not refused yet (ROADMAP item 1)",
)
def test_a_tenant_cannot_touch_another_tenants_allocation():
    server = CricketServer()
    a, b = CricketClient.loopback(server), CricketClient.loopback(server)
    assert a.session_identity != b.session_identity
    ptr = a.malloc(8)
    a.memcpy_h2d(ptr, b"AAAAAAAA")

    foreign = C.cudaErrorInvalidDevicePointer
    assert outcome(lambda: b.memcpy_d2h(ptr, 8)) == foreign
    assert outcome(lambda: b.memcpy_h2d(ptr, b"BBBBBBBB")) == foreign
    assert outcome(lambda: b.free(ptr)) == foreign
    assert a.memcpy_d2h(ptr, 8) == b"AAAAAAAA"
