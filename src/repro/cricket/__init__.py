"""Cricket GPU virtualization: the paper's server and client layers.

* :mod:`repro.cricket.spec` -- the RPCL interface definition,
* :mod:`repro.cricket.server` -- the GPU-node RPC server (Figure 3's right
  half),
* :mod:`repro.cricket.client` -- the application-side virtualization layer
  (Figure 3's left half), built entirely from the generated RPCL stubs,
* :mod:`repro.cricket.params` -- CUDA-ABI kernel parameter packing,
* :mod:`repro.cricket.transfer` -- the four memory-transfer methods' support
  matrix and timing model,
* :mod:`repro.cricket.checkpoint` -- checkpoint/restart of server state and
  its one format (CRC-framed containers, delta materialization),
* :mod:`repro.cricket.scheduler` -- GPU-sharing scheduling policies,
* :mod:`repro.cricket.sessions` -- per-client leases, the resource ledger and
  orphan reclamation,
* :mod:`repro.cricket.replication` -- hot-standby replication (full sync +
  op-log) backing transparent client failover,
* :mod:`repro.cricket.ckptstore` -- crash-consistent, generation-numbered
  storage of those containers, with delta generations and corruption
  fallback,
* :mod:`repro.cricket.migration` -- resumable iterative pre-copy live
  migration over CRC'd chunks, resumed from the last acknowledged one.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "server": ("CricketServer",),
        "client": ("CricketClient", "cricket_interface"),
        "spec": ("CRICKET_SPEC", "CRICKET_PROG_NAME", "CRICKET_VERS", "MUTATING_PROC_NAMES"),
        "params": ("pack_params", "unpack_params"),
        "transfer": ("TransferMethod", "TransferTimingModel", "supported_on"),
        "checkpoint": (
            "snapshot_server", "restore_server", "capture_server_state", "restore_server_state",
        ),
        "ckptstore": ("CheckpointStore", "FileStorage"),
        "migration": (
            "MigrationSource", "MigrationTarget", "MigrationReport",
            "LoopbackMigrationChannel", "FaultyMigrationChannel", "migrate_live",
        ),
        "replication": (
            "ReplicationLink", "HaPair", "make_ha_pair", "promote", "promote_with_witness",
            "state_fingerprint",
        ),
        "witness": (
            "Witness", "LeadershipFence", "LeadershipLease", "LeadershipRefused",
            "WitnessUnreachableError", "StaleEpochError",
        ),
        "scheduler": (
            "GpuScheduler", "FifoPolicy", "RoundRobinPolicy", "FairSharePolicy", "WorkItem",
            "ScheduledItem",
        ),
        "sessions": ("SessionManager", "Session", "ResourceLedger", "LEASE_FOREVER"),
        "errors": (
            "CricketError", "CheckpointError", "CheckpointFormatError", "MigrationError",
            "MigrationChannelError", "ChunkRejectedError",
        ),
    },
)
