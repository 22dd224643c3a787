"""Simulated cluster network and virtual time.

The paper's evaluation runs on two physical nodes joined by 100 Gbit/s
Ethernet (IPoIB on ConnectX-5).  This subpackage replaces the physical
testbed with:

* :class:`~repro.net.simclock.SimClock` -- a monotonically advancing virtual
  clock in nanoseconds.  All latency in the reproduction is *charged* to a
  SimClock rather than measured from wall time, making every figure
  deterministic and hardware independent.
* :class:`~repro.net.link.LinkModel` -- an analytic latency/bandwidth model
  of one network link, including a serialization (CPU-bound) component that
  reproduces the paper's observation that single-threaded RPC transfers are
  bound by single-core copy performance rather than line rate.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "simclock": ("SimClock", "WallClock"),
        "link": ("LinkModel", "TETHER_100G"),
    },
)
