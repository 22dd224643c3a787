"""The CUDA runtime's call contract, one row per entry point and condition.

Every public ``cuda*`` entry point of :class:`~repro.cuda.runtime.CudaRuntime`
(the three memcpy directions of ``cudaMemcpy`` and ``cudaMemcpyAsync`` as
rows of their own) is called under five conditions:

* ``healthy`` -- a device with two allocations, a stream with work queued
  behind one recorded event, a second recorded event and an unrecorded one;
* ``faulted`` -- the same device poisoned with a sticky ECC fault;
* ``hung`` -- the same device with the watchdog's hang verdict on the stream;
* ``unknown`` -- healthy, with a handle or pointer nothing created (calls
  that take none repeat the healthy call);
* ``bad`` -- healthy, with a bad ``kind``, payload or argument.

Each row pins what the caller can observe: the return value, the sticky
error (``cudaPeekAtLastError()`` afterwards), and how far the call moved the
clock, ``time_charged_ns`` and ``api_call_count``.  Today's quirks are
pinned as they are (an H2D payload shorter than ``count`` returns
``cudaErrorInvalidValue`` without setting the sticky error, a failed
``cudaSetDevice`` leaves it alone).  What a row cannot show is pinned
beside the table: an async copy on an unknown stream moves no data.
"""

import pytest

from repro.cuda import constants as C
from repro.cuda.runtime import CudaRuntime, DeviceProperties
from repro.gpu.catalog import A100
from repro.gpu.device import GpuDevice

MIB = 1 << 20
H2D, D2H, D2D = C.cudaMemcpyHostToDevice, C.cudaMemcpyDeviceToHost, C.cudaMemcpyDeviceToDevice
PAYLOAD = bytes(range(64))
#: a device address no allocation covers
STRAY = 0xDEAD000


class World:
    """The handles the setup made."""

    def __init__(self, a, b, stream, e1, e2, e3):
        self.a, self.b, self.stream = a, b, stream
        self.e1, self.e2, self.e3 = e1, e2, e3


def build(condition):
    """A runtime in the state ``condition`` names, and its handles."""
    rt = CudaRuntime([GpuDevice(A100, mem_bytes=MIB)])
    _, a = rt.cudaMalloc(64)
    _, b = rt.cudaMalloc(64)
    rt.cudaMemcpy(a, PAYLOAD, 64, H2D)
    _, stream = rt.cudaStreamCreate()
    _, e1 = rt.cudaEventCreate()
    _, e2 = rt.cudaEventCreate()
    _, e3 = rt.cudaEventCreate()
    rt.cudaEventRecord(e1, stream)
    rt.cudaLaunchKernel("saxpy", (1, 1, 1), (16, 1, 1), (b, a, 2.0, 16), 0, stream)
    rt.cudaEventRecord(e2, stream)
    device = rt.devices[0]
    if condition == "faulted":
        device.inject_fault("ecc")
    elif condition == "hung":
        device.streams.stream(stream).hang = "spin"
    return rt, World(a, b, stream, e1, e2, e3)


def same(args):
    """(valid, unknown, bad) arguments that are all ``args``."""
    return args, args, args


#: row -> (entry point, arguments when valid, with an unknown handle or
#: pointer, with a bad kind, payload or argument); each a function of the
#: world's handles
CALLS = {
    "cudaGetLastError": ("cudaGetLastError", *same(lambda w: ())),
    "cudaPeekAtLastError": ("cudaPeekAtLastError", *same(lambda w: ())),
    "cudaGetDeviceCount": ("cudaGetDeviceCount", *same(lambda w: ())),
    "cudaSetDevice": ("cudaSetDevice", lambda w: (0,), lambda w: (7,), lambda w: (-1,)),
    "cudaGetDevice": ("cudaGetDevice", *same(lambda w: ())),
    "cudaGetDeviceProperties": (
        "cudaGetDeviceProperties", lambda w: (0,), lambda w: (7,), lambda w: (-1,)),
    "cudaDeviceSynchronize": ("cudaDeviceSynchronize", *same(lambda w: ())),
    "cudaDeviceReset": ("cudaDeviceReset", *same(lambda w: ())),
    "cudaMalloc": ("cudaMalloc", lambda w: (256,), lambda w: (256,), lambda w: (2 * MIB,)),
    "cudaFree": ("cudaFree", lambda w: (w.b,), lambda w: (STRAY,), lambda w: ("b",)),
    "cudaMemcpy H2D": (
        "cudaMemcpy",
        lambda w: (w.b, b"\x07" * 16, 16, H2D),
        lambda w: (STRAY, b"\x07" * 16, 16, H2D),
        lambda w: (w.b, b"ab", 16, H2D),
    ),
    "cudaMemcpy D2H": (
        "cudaMemcpy",
        lambda w: (0, w.a, 8, D2H),
        lambda w: (0, STRAY, 8, D2H),
        lambda w: (0, b"a", 8, D2H),
    ),
    "cudaMemcpy D2D": (
        "cudaMemcpy",
        lambda w: (w.b, w.a, 64, D2D),
        lambda w: (w.b, STRAY, 64, D2D),
        lambda w: (w.b, w.a, 64, 9),
    ),
    "cudaMemset": (
        "cudaMemset", lambda w: (w.b, 1, 64), lambda w: (STRAY, 1, 64), lambda w: (w.b, 1, 128)),
    "cudaStreamCreate": ("cudaStreamCreate", *same(lambda w: ())),
    "cudaStreamDestroy": (
        "cudaStreamDestroy", lambda w: (w.stream,), lambda w: (99,), lambda w: (0,)),
    "cudaStreamSynchronize": (
        "cudaStreamSynchronize", lambda w: (w.stream,), lambda w: (99,), lambda w: ("s",)),
    "cudaStreamWaitEvent": (
        "cudaStreamWaitEvent",
        lambda w: (0, w.e2), lambda w: (0, 99), lambda w: ("s", w.e2),
    ),
    "cudaEventCreate": ("cudaEventCreate", *same(lambda w: ())),
    "cudaEventDestroy": (
        "cudaEventDestroy", lambda w: (w.e1,), lambda w: (99,), lambda w: ("e",)),
    "cudaEventRecord": (
        "cudaEventRecord",
        lambda w: (w.e3, w.stream), lambda w: (w.e3, 99), lambda w: ("e", w.stream),
    ),
    "cudaEventSynchronize": (
        "cudaEventSynchronize", lambda w: (w.e2,), lambda w: (99,), lambda w: (w.e3,)),
    "cudaEventElapsedTime": (
        "cudaEventElapsedTime",
        lambda w: (w.e1, w.e2), lambda w: (w.e1, 99), lambda w: (w.e1, w.e3),
    ),
    "cudaMemcpyAsync H2D": (
        "cudaMemcpyAsync",
        lambda w: (w.b, b"\x07" * 16, 16, H2D, w.stream),
        lambda w: (w.b, b"\x07" * 16, 16, H2D, 99),
        lambda w: (w.b, memoryview(b"\x07" * 32)[::2], 16, H2D, w.stream),
    ),
    "cudaMemcpyAsync D2H": (
        "cudaMemcpyAsync",
        lambda w: (0, w.a, 8, D2H, w.stream),
        lambda w: (0, STRAY, 8, D2H, w.stream),
        lambda w: (0, w.a, 128, D2H, w.stream),
    ),
    "cudaMemcpyAsync D2D": (
        "cudaMemcpyAsync",
        lambda w: (w.b, w.a, 64, D2D, w.stream),
        lambda w: (w.b, w.a, 64, D2D, 99),
        lambda w: (w.b, w.a, 64, 9, w.stream),
    ),
    "cudaLaunchKernel": (
        "cudaLaunchKernel",
        lambda w: ("saxpy", (1, 1, 1), (16, 1, 1), (w.b, w.a, 2.0, 16), 0, w.stream),
        lambda w: ("noSuchKernel", (1, 1, 1), (16, 1, 1), (w.b, w.a, 2.0, 16), 0, w.stream),
        lambda w: ("saxpy", (1, 1, 1), (16, 1, 1), (w.b, w.a), 0, w.stream),
    ),
}

CONDITIONS = ("healthy", "faulted", "hung", "unknown", "bad")


def observe(row, condition):
    """(return value, sticky error, clock, time charged, API calls) of one
    call, the last three as steps from the state before it."""
    entry, valid, unknown, bad = CALLS[row]
    rt, world = build(condition)
    args = {"unknown": unknown, "bad": bad}.get(condition, valid)(world)
    before = (rt.clock.now_ns, rt.time_charged_ns, rt.api_call_count)
    result = getattr(rt, entry)(*args)
    steps = tuple(
        after - was
        for after, was in zip((rt.clock.now_ns, rt.time_charged_ns, rt.api_call_count), before)
    )
    return (result, rt.cudaPeekAtLastError(), *steps)


OK, E = C.cudaSuccess, C.cudaErrorECCUncorrectable
TIMEOUT, HANDLE = C.cudaErrorLaunchTimeout, C.cudaErrorInvalidResourceHandle
VALUE, POINTER = C.cudaErrorInvalidValue, C.cudaErrorInvalidDevicePointer
OOM, IMAGE = C.cudaErrorMemoryAllocation, C.cudaErrorInvalidKernelImage
PROPS = DeviceProperties(
    name=A100.name,
    total_global_mem=A100.mem_bytes,
    multi_processor_count=A100.sm_count,
    clock_rate_khz=1_410_000,
    memory_bus_bandwidth_Bps=A100.mem_bandwidth_Bps,
)

#: (row, condition) -> (return value, sticky error, clock step ns, time
#: charged step ns, API call step)
EXPECTED = {
    ("cudaGetLastError", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaGetLastError", "faulted"): (OK, OK, 0, 0, 1),
    ("cudaGetLastError", "hung"): (OK, OK, 0, 0, 1),
    ("cudaGetLastError", "unknown"): (OK, OK, 0, 0, 1),
    ("cudaGetLastError", "bad"): (OK, OK, 0, 0, 1),
    ("cudaPeekAtLastError", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaPeekAtLastError", "faulted"): (OK, OK, 0, 0, 1),
    ("cudaPeekAtLastError", "hung"): (OK, OK, 0, 0, 1),
    ("cudaPeekAtLastError", "unknown"): (OK, OK, 0, 0, 1),
    ("cudaPeekAtLastError", "bad"): (OK, OK, 0, 0, 1),
    ("cudaGetDeviceCount", "healthy"): ((OK, 1), OK, 0, 0, 1),
    ("cudaGetDeviceCount", "faulted"): ((OK, 1), OK, 0, 0, 1),
    ("cudaGetDeviceCount", "hung"): ((OK, 1), OK, 0, 0, 1),
    ("cudaGetDeviceCount", "unknown"): ((OK, 1), OK, 0, 0, 1),
    ("cudaGetDeviceCount", "bad"): ((OK, 1), OK, 0, 0, 1),
    ("cudaSetDevice", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaSetDevice", "faulted"): (OK, OK, 0, 0, 1),
    ("cudaSetDevice", "hung"): (OK, OK, 0, 0, 1),
    ("cudaSetDevice", "unknown"): (C.cudaErrorInvalidDevice, OK, 0, 0, 1),
    ("cudaSetDevice", "bad"): (C.cudaErrorInvalidDevice, OK, 0, 0, 1),
    ("cudaGetDevice", "healthy"): ((OK, 0), OK, 0, 0, 1),
    ("cudaGetDevice", "faulted"): ((OK, 0), OK, 0, 0, 1),
    ("cudaGetDevice", "hung"): ((OK, 0), OK, 0, 0, 1),
    ("cudaGetDevice", "unknown"): ((OK, 0), OK, 0, 0, 1),
    ("cudaGetDevice", "bad"): ((OK, 0), OK, 0, 0, 1),
    ("cudaGetDeviceProperties", "healthy"): ((OK, PROPS), OK, 0, 0, 1),
    ("cudaGetDeviceProperties", "faulted"): ((OK, PROPS), OK, 0, 0, 1),
    ("cudaGetDeviceProperties", "hung"): ((OK, PROPS), OK, 0, 0, 1),
    ("cudaGetDeviceProperties", "unknown"): ((C.cudaErrorInvalidDevice, None), OK, 0, 0, 1),
    ("cudaGetDeviceProperties", "bad"): ((C.cudaErrorInvalidDevice, None), OK, 0, 0, 1),
    ("cudaDeviceSynchronize", "healthy"): (OK, OK, 6000, 6000, 1),
    ("cudaDeviceSynchronize", "faulted"): (E, E, 6000, 6000, 1),
    ("cudaDeviceSynchronize", "hung"): (TIMEOUT, TIMEOUT, 0, 0, 1),
    ("cudaDeviceSynchronize", "unknown"): (OK, OK, 6000, 6000, 1),
    ("cudaDeviceSynchronize", "bad"): (OK, OK, 6000, 6000, 1),
    ("cudaDeviceReset", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaDeviceReset", "faulted"): (OK, OK, 0, 0, 1),
    ("cudaDeviceReset", "hung"): (OK, OK, 0, 0, 1),
    ("cudaDeviceReset", "unknown"): (OK, OK, 0, 0, 1),
    ("cudaDeviceReset", "bad"): (OK, OK, 0, 0, 1),
    ("cudaMalloc", "healthy"): ((OK, 0x7f0000000200), OK, 1000, 1000, 1),
    ("cudaMalloc", "faulted"): ((E, 0), E, 1000, 1000, 1),
    ("cudaMalloc", "hung"): ((OK, 0x7f0000000200), OK, 1000, 1000, 1),
    ("cudaMalloc", "unknown"): ((OK, 0x7f0000000200), OK, 1000, 1000, 1),
    ("cudaMalloc", "bad"): ((OOM, 0), OOM, 1000, 1000, 1),
    ("cudaFree", "healthy"): (OK, OK, 1000, 1000, 1),
    ("cudaFree", "faulted"): (E, E, 1000, 1000, 1),
    ("cudaFree", "hung"): (OK, OK, 1000, 1000, 1),
    ("cudaFree", "unknown"): (POINTER, POINTER, 1000, 1000, 1),
    ("cudaFree", "bad"): (VALUE, VALUE, 1000, 1000, 1),
    ("cudaMemcpy H2D", "healthy"): ((OK, None), OK, 14001, 14000, 1),
    ("cudaMemcpy H2D", "faulted"): ((E, None), E, 6000, 6000, 1),
    ("cudaMemcpy H2D", "hung"): ((TIMEOUT, None), TIMEOUT, 0, 0, 1),
    ("cudaMemcpy H2D", "unknown"): ((POINTER, None), POINTER, 6000, 6000, 1),
    ("cudaMemcpy H2D", "bad"): ((VALUE, None), OK, 6000, 6000, 1),
    ("cudaMemcpy D2H", "healthy"): ((OK, b"\x00\x01\x02\x03\x04\x05\x06\x07"), OK, 14000, 14000, 1),
    ("cudaMemcpy D2H", "faulted"): ((E, None), E, 6000, 6000, 1),
    ("cudaMemcpy D2H", "hung"): ((TIMEOUT, None), TIMEOUT, 0, 0, 1),
    ("cudaMemcpy D2H", "unknown"): ((POINTER, None), POINTER, 6000, 6000, 1),
    ("cudaMemcpy D2H", "bad"): ((VALUE, None), OK, 6000, 6000, 1),
    ("cudaMemcpy D2D", "healthy"): ((OK, None), OK, 12000, 12000, 1),
    ("cudaMemcpy D2D", "faulted"): ((E, None), E, 6000, 6000, 1),
    ("cudaMemcpy D2D", "hung"): ((TIMEOUT, None), TIMEOUT, 0, 0, 1),
    ("cudaMemcpy D2D", "unknown"): ((POINTER, None), POINTER, 6000, 6000, 1),
    ("cudaMemcpy D2D", "bad"): ((C.cudaErrorInvalidMemcpyDirection, None), OK, 6000, 6000, 1),
    ("cudaMemset", "healthy"): (OK, OK, 3000, 3000, 1),
    ("cudaMemset", "faulted"): (E, E, 0, 0, 1),
    ("cudaMemset", "hung"): (OK, OK, 3000, 3000, 1),
    ("cudaMemset", "unknown"): (POINTER, POINTER, 0, 0, 1),
    ("cudaMemset", "bad"): (POINTER, POINTER, 0, 0, 1),
    ("cudaStreamCreate", "healthy"): ((OK, 2), OK, 0, 0, 1),
    ("cudaStreamCreate", "faulted"): ((E, 0), E, 0, 0, 1),
    ("cudaStreamCreate", "hung"): ((OK, 2), OK, 0, 0, 1),
    ("cudaStreamCreate", "unknown"): ((OK, 2), OK, 0, 0, 1),
    ("cudaStreamCreate", "bad"): ((OK, 2), OK, 0, 0, 1),
    ("cudaStreamDestroy", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaStreamDestroy", "faulted"): (E, E, 0, 0, 1),
    ("cudaStreamDestroy", "hung"): (OK, OK, 0, 0, 1),
    ("cudaStreamDestroy", "unknown"): (HANDLE, HANDLE, 0, 0, 1),
    ("cudaStreamDestroy", "bad"): (HANDLE, HANDLE, 0, 0, 1),
    ("cudaStreamSynchronize", "healthy"): (OK, OK, 6000, 6000, 1),
    ("cudaStreamSynchronize", "faulted"): (E, E, 0, 0, 1),
    ("cudaStreamSynchronize", "hung"): (TIMEOUT, TIMEOUT, 0, 0, 1),
    ("cudaStreamSynchronize", "unknown"): (HANDLE, HANDLE, 0, 0, 1),
    ("cudaStreamSynchronize", "bad"): (VALUE, VALUE, 0, 0, 1),
    ("cudaStreamWaitEvent", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaStreamWaitEvent", "faulted"): (E, E, 0, 0, 1),
    ("cudaStreamWaitEvent", "hung"): (OK, OK, 0, 0, 1),
    ("cudaStreamWaitEvent", "unknown"): (HANDLE, HANDLE, 0, 0, 1),
    ("cudaStreamWaitEvent", "bad"): (VALUE, VALUE, 0, 0, 1),
    ("cudaEventCreate", "healthy"): ((OK, 4), OK, 0, 0, 1),
    ("cudaEventCreate", "faulted"): ((E, 0), E, 0, 0, 1),
    ("cudaEventCreate", "hung"): ((OK, 4), OK, 0, 0, 1),
    ("cudaEventCreate", "unknown"): ((OK, 4), OK, 0, 0, 1),
    ("cudaEventCreate", "bad"): ((OK, 4), OK, 0, 0, 1),
    ("cudaEventDestroy", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaEventDestroy", "faulted"): (E, E, 0, 0, 1),
    ("cudaEventDestroy", "hung"): (OK, OK, 0, 0, 1),
    ("cudaEventDestroy", "unknown"): (HANDLE, HANDLE, 0, 0, 1),
    ("cudaEventDestroy", "bad"): (VALUE, VALUE, 0, 0, 1),
    ("cudaEventRecord", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaEventRecord", "faulted"): (E, E, 0, 0, 1),
    ("cudaEventRecord", "hung"): (OK, OK, 0, 0, 1),
    ("cudaEventRecord", "unknown"): (HANDLE, HANDLE, 0, 0, 1),
    ("cudaEventRecord", "bad"): (VALUE, VALUE, 0, 0, 1),
    ("cudaEventSynchronize", "healthy"): (OK, OK, 6000, 6000, 1),
    ("cudaEventSynchronize", "faulted"): (E, E, 0, 0, 1),
    ("cudaEventSynchronize", "hung"): (OK, OK, 6000, 6000, 1),
    ("cudaEventSynchronize", "unknown"): (HANDLE, HANDLE, 0, 0, 1),
    ("cudaEventSynchronize", "bad"): (HANDLE, HANDLE, 0, 0, 1),
    ("cudaEventElapsedTime", "healthy"): ((OK, 0.016002), OK, 0, 0, 1),
    ("cudaEventElapsedTime", "faulted"): ((E, 0.0), E, 0, 0, 1),
    ("cudaEventElapsedTime", "hung"): ((OK, 0.016002), OK, 0, 0, 1),
    ("cudaEventElapsedTime", "unknown"): ((HANDLE, 0.0), HANDLE, 0, 0, 1),
    ("cudaEventElapsedTime", "bad"): ((HANDLE, 0.0), HANDLE, 0, 0, 1),
    ("cudaMemcpyAsync H2D", "healthy"): ((OK, None), OK, 0, 0, 1),
    ("cudaMemcpyAsync H2D", "faulted"): ((E, None), E, 0, 0, 1),
    ("cudaMemcpyAsync H2D", "hung"): ((OK, None), OK, 0, 0, 1),
    ("cudaMemcpyAsync H2D", "unknown"): ((HANDLE, None), HANDLE, 0, 0, 1),
    ("cudaMemcpyAsync H2D", "bad"): ((VALUE, None), OK, 0, 0, 1),
    ("cudaMemcpyAsync D2H", "healthy"): ((OK, b"\x00\x01\x02\x03\x04\x05\x06\x07"), OK, 0, 0, 1),
    ("cudaMemcpyAsync D2H", "faulted"): ((E, None), E, 0, 0, 1),
    ("cudaMemcpyAsync D2H", "hung"): ((OK, b"\x00\x01\x02\x03\x04\x05\x06\x07"), OK, 0, 0, 1),
    ("cudaMemcpyAsync D2H", "unknown"): ((POINTER, None), POINTER, 0, 0, 1),
    ("cudaMemcpyAsync D2H", "bad"): ((POINTER, None), POINTER, 0, 0, 1),
    ("cudaMemcpyAsync D2D", "healthy"): ((OK, None), OK, 0, 0, 1),
    ("cudaMemcpyAsync D2D", "faulted"): ((E, None), E, 0, 0, 1),
    ("cudaMemcpyAsync D2D", "hung"): ((OK, None), OK, 0, 0, 1),
    ("cudaMemcpyAsync D2D", "unknown"): ((HANDLE, None), HANDLE, 0, 0, 1),
    ("cudaMemcpyAsync D2D", "bad"): ((C.cudaErrorInvalidMemcpyDirection, None), OK, 0, 0, 1),
    ("cudaLaunchKernel", "healthy"): (OK, OK, 0, 0, 1),
    ("cudaLaunchKernel", "faulted"): (E, E, 0, 0, 1),
    ("cudaLaunchKernel", "hung"): (OK, OK, 0, 0, 1),
    ("cudaLaunchKernel", "unknown"): (IMAGE, IMAGE, 0, 0, 1),
    ("cudaLaunchKernel", "bad"): (VALUE, VALUE, 0, 0, 1),
}

#: (clock ns, time charged ns, API calls) after the setup, under every condition
SETUP = (10002, 10002, 10)


def test_every_cuda_entry_point_has_a_row():
    public = {n for n in vars(CudaRuntime) if n.startswith("cuda")}
    assert {entry for entry, *_ in CALLS.values()} == public


def test_every_row_is_pinned_under_every_condition():
    assert set(EXPECTED) == {(row, c) for row in CALLS for c in CONDITIONS}


def test_the_setup_is_pinned():
    for condition in CONDITIONS:
        rt, _ = build(condition)
        assert (rt.clock.now_ns, rt.time_charged_ns, rt.api_call_count) == SETUP, condition
        assert rt.cudaPeekAtLastError() == C.cudaSuccess


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("row", CALLS)
def test_contract(row, condition):
    assert observe(row, condition) == EXPECTED[row, condition]


@pytest.mark.parametrize("kind", [H2D, D2D])
def test_an_async_copy_on_an_unknown_stream_moves_no_data(kind):
    rt, world = build("healthy")
    before = rt.devices[0].allocator.read(world.b, 64)
    src = b"\x07" * 16 if kind == H2D else world.a
    assert rt.cudaMemcpyAsync(world.b, src, 16, kind, 99) == (HANDLE, None)
    assert rt.devices[0].allocator.read(world.b, 64) == before
