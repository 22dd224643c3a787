"""What the two TCP workloads share: a server, a client, server queries."""

from __future__ import annotations

import time

from bench import MIB
from bench.serverproc import ServerChild
from bench.workloads import Workload


class SocketWorkload(Workload):
    """One ``CricketClient.connect_tcp`` connection over 127.0.0.1.

    Exactly two busy processes: this generator and the server child.  The
    traffic crosses the host's loopback interface, not a real link, so no
    link rate is claimed.
    """

    two_processes = True
    client = child = server = None

    def connect(self) -> None:
        from repro.cricket import CricketClient

        if self.in_process:
            from repro.cricket import CricketServer
            from repro.gpu import A100, GpuDevice

            self.server = CricketServer([GpuDevice(A100, mem_bytes=256 * MIB)])
            _, port = self.server.serve_tcp("127.0.0.1", 0)
        else:
            self.child = ServerChild()
            port = self.child.port
        self.client = CricketClient.connect_tcp("127.0.0.1", port)
        self.client.stub.client.xid_observer = self.xid_observer

    def used_bytes(self) -> int:
        if self.child is not None:
            return self.child.stat()["used_bytes"]
        return self.server.devices[0].allocator.used_bytes

    def cpu_s(self) -> float:
        own = time.process_time()
        return own + self.child.stat()["cpu_s"] if self.child is not None else own

    def server_maxrss_KiB(self) -> int:
        return self.child.stat()["maxrss_KiB"] if self.child is not None else 0

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.child is not None:
            self.child.stop()
        if self.server is not None:
            self.server.shutdown()
