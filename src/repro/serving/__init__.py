"""``repro.serving``: the resident join server (join-as-a-service).

Everything above the staged pipeline that turns one-shot joins into a
long-running service: the dataset registry, the fingerprint-keyed
artifact cache, admission control with single-flight coalescing, the
newline-JSON protocol, the asyncio server, and a synchronous client.
See ``docs/SERVING.md`` for the tour.
"""

from repro._lazy import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "admission": ("AdmissionController", "QueryRejected"),
    "cache": ("ArtifactCache", "estimate_nbytes"),
    "client": ("JoinClient", "ServerError", "connect"),
    "fingerprint": ("dataset_fingerprint", "grid_partition_key", "query_key"),
    "protocol": ("MAX_LINE_BYTES", "OPS", "ProtocolError"),
    "registry": ("DatasetRegistry", "RegisteredDataset"),
    "server": ("JoinServer", "ServerConfig", "ServerHandle", "start_in_thread"),
})
