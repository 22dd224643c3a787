"""Generator-side handle on the ``bench.server_main`` child process."""

from __future__ import annotations

import json
import subprocess
import sys

from bench import ROOT


class ServerChild:
    """Spawns the server child, queries it, and makes sure it ends."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "bench.server_main"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            hello = self._read()
        except BaseException:
            self.stop()
            raise
        self.port: int = hello["port"]
        self.echo_port: int = hello["echo_port"]
        self.pid: int = hello["pid"]

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited early (code {self._proc.poll()})"
            )
        return json.loads(line)

    def stat(self) -> dict:
        """``used_bytes``, ``cpu_s`` and ``maxrss_KiB`` of the child, now."""
        self._proc.stdin.write("stat\n")
        self._proc.stdin.flush()
        return self._read()

    def stop(self) -> dict | None:
        """Close stdin (the child's cue), collect its last report, reap it."""
        last = None
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
                last = self._read()
            except (OSError, RuntimeError, ValueError):
                pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        return last
