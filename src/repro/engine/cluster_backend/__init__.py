"""Real multi-process cluster backend (localhost shared-nothing).

Long-lived worker daemons over sockets, a coordinating scheduler with
heartbeat failure detection, a real shuffle data plane (remote block
fetch with timeout/retry/backoff and coordinator fallback), elastic
membership, and bounded respawn.  Entered through the executor's
``cluster`` backend; degrades to ``processes`` when unavailable.
See ``docs/CLUSTER.md``.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "coordinator": (
        "ClusterConfig", "ClusterService", "ClusterUnavailable", "DaemonLost",
        "RemoteTaskError", "run_cluster_tier",
    ),
    "protocol": ("BlockUnavailable", "ConnectionClosed"),
})
