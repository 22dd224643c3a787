"""Cricket GPU virtualization: the paper's server and client layers.

* :mod:`repro.cricket.spec` -- the RPCL interface definition,
* :mod:`repro.cricket.server` -- the GPU-node RPC server (Figure 3's right
  half),
* :mod:`repro.cricket.client` -- the application-side virtualization layer
  (Figure 3's left half), built entirely from the generated RPCL stubs,
* :mod:`repro.cricket.params` -- CUDA-ABI kernel parameter packing,
* :mod:`repro.cricket.transfer` -- the four memory-transfer methods,
* :mod:`repro.cricket.checkpoint` -- checkpoint/restart of server state,
* :mod:`repro.cricket.scheduler` -- GPU-sharing scheduling policies,
* :mod:`repro.cricket.sessions` -- per-client leases, resource ledgers and
  orphan reclamation,
* :mod:`repro.cricket.replication` -- hot-standby replication (full sync +
  op-log) backing transparent client failover,
* :mod:`repro.cricket.ckptstore` -- crash-consistent, generation-numbered
  checkpoint store with delta checkpoints and corruption fallback,
* :mod:`repro.cricket.migration` -- resumable iterative pre-copy live
  migration over CRC'd chunks with a persistent cursor.
"""

from repro.cricket.checkpoint import (
    capture_server_state,
    load_checkpoint,
    restore_server,
    restore_server_state,
    save_checkpoint,
    snapshot_server,
)
from repro.cricket.ckptstore import CheckpointStore, FileStorage
from repro.cricket.client import CricketClient, cricket_interface
from repro.cricket.migration import (
    FaultyMigrationChannel,
    LoopbackMigrationChannel,
    MigrationConfig,
    MigrationReport,
    MigrationSource,
    MigrationTarget,
    SocketMigrationChannel,
    migrate_live,
)
from repro.cricket.replication import (
    ReplicationLink,
    make_ha_pair,
    promote,
    promote_with_witness,
    state_fingerprint,
)
from repro.cricket.witness import (
    LeadershipFence,
    LeadershipLease,
    LeadershipRefused,
    StaleEpochError,
    Witness,
    WitnessUnreachableError,
)
from repro.cricket.data_channel import DataChannelClient, DataChannelServer
from repro.cricket.errors import (
    CheckpointError,
    CheckpointFormatError,
    ChunkRejectedError,
    CricketError,
    MigrationChannelError,
    MigrationError,
    TransferUnsupportedError,
)
from repro.cricket.params import pack_params, unpack_params
from repro.cricket.scheduler import (
    FairSharePolicy,
    FifoPolicy,
    GpuScheduler,
    RoundRobinPolicy,
    ScheduledItem,
    WorkItem,
)
from repro.cricket.server import CricketServer
from repro.cricket.sessions import (
    LEASE_FOREVER,
    ResourceLedger,
    Session,
    SessionManager,
)
from repro.cricket.spec import (
    CRICKET_PROG_NAME,
    CRICKET_SPEC,
    CRICKET_VERS,
    MUTATING_PROC_NAMES,
)
from repro.cricket.transfer import (
    TransferEngine,
    TransferMethod,
    TransferTimingModel,
    supported_on,
)

__all__ = [
    "CricketServer",
    "CricketClient",
    "cricket_interface",
    "CRICKET_SPEC",
    "CRICKET_PROG_NAME",
    "CRICKET_VERS",
    "pack_params",
    "unpack_params",
    "TransferMethod",
    "DataChannelServer",
    "DataChannelClient",
    "TransferEngine",
    "TransferTimingModel",
    "supported_on",
    "snapshot_server",
    "restore_server",
    "capture_server_state",
    "restore_server_state",
    "CheckpointStore",
    "FileStorage",
    "MigrationSource",
    "MigrationTarget",
    "MigrationConfig",
    "MigrationReport",
    "LoopbackMigrationChannel",
    "FaultyMigrationChannel",
    "SocketMigrationChannel",
    "migrate_live",
    "ReplicationLink",
    "MUTATING_PROC_NAMES",
    "make_ha_pair",
    "promote",
    "promote_with_witness",
    "Witness",
    "LeadershipFence",
    "LeadershipLease",
    "LeadershipRefused",
    "WitnessUnreachableError",
    "StaleEpochError",
    "state_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "GpuScheduler",
    "FifoPolicy",
    "RoundRobinPolicy",
    "FairSharePolicy",
    "WorkItem",
    "ScheduledItem",
    "SessionManager",
    "Session",
    "ResourceLedger",
    "LEASE_FOREVER",
    "CricketError",
    "CheckpointError",
    "CheckpointFormatError",
    "MigrationError",
    "MigrationChannelError",
    "ChunkRejectedError",
    "TransferUnsupportedError",
]
