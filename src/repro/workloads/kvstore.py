"""The fronted key-value store: RPC's home turf.

§2/§3.1 concede that "RPC shines in situations where... an RPC endpoint
either fronts large data [or] large compute... with small arguments and
return values — often manifesting as something like a fronted key-value
store service."  Experiment E11 runs the same KV workload over both
stacks to find where the concession ends: as values grow and re-access
rises, the object-space path (references + local caching) overtakes
call-by-value.

Two implementations of one interface:

* :class:`RpcKVService` — a classic RPC server with ``get``/``put``;
  every ``get`` serializes the value and ships it whole.
* :class:`ObjectKVService` — values live in objects; a ``get`` returns a
  24-byte reference, and the client reads through it (demand reads for
  one-shot access, a full fetch when it expects re-access — after which
  re-reads are local and free of network traffic).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.refs import GlobalRef
from ..runtime.engine import GlobalSpaceRuntime
from ..rpc.stubs import RpcClient, RpcServer

__all__ = ["RpcKVService", "RpcKVClient", "ObjectKVService", "ObjectKVClient"]


class RpcKVService:
    """RPC-fronted store: values are serialized into every reply."""

    def __init__(self, server: RpcServer, lookup_us: float = 2.0):
        self.server = server
        self._data: Dict[str, bytes] = {}
        server.register("kv_get", self._get, compute_us=lookup_us)
        server.register("kv_put", self._put, compute_us=lookup_us)

    def _get(self, key: str) -> bytes:
        if key not in self._data:
            raise KeyError(key)
        return self._data[key]

    def _put(self, key: str, value: bytes) -> bool:
        self._data[key] = bytes(value)
        return True

    def preload(self, items: Dict[str, bytes]) -> None:
        """Bulk-insert initial key/value pairs."""
        self._data.update(items)


class RpcKVClient:
    """Caller side of the RPC store."""

    def __init__(self, client: RpcClient, endpoint: str):
        self.client = client
        self.endpoint = endpoint

    def get(self, key: str):
        """Process: fetch the whole value by RPC (serialize + ship)."""
        value = yield from self.client.call(self.endpoint, "kv_get", key=key)
        return value

    def put(self, key: str, value: bytes):
        """Process: store a value by RPC."""
        result = yield from self.client.call(self.endpoint, "kv_put",
                                             key=key, value=value)
        return result


class ObjectKVService:
    """Object-space store: the server maps keys to object references.

    The directory lives on the serving node; ``lookup`` is a tiny RPC
    returning a 24-byte reference.  Value bytes never pass through the
    serializer — clients read them straight out of the object layer.
    """

    def __init__(self, runtime: GlobalSpaceRuntime, node_name: str,
                 server: RpcServer, lookup_us: float = 2.0):
        self.runtime = runtime
        self.node_name = node_name
        self._directory: Dict[str, Tuple[str, int]] = {}  # key -> (oid hex, size)
        server.register("kv_lookup", self._lookup, compute_us=lookup_us)

    def _lookup(self, key: str):
        entry = self._directory.get(key)
        if entry is None:
            raise KeyError(key)
        return {"oid": entry[0], "size": entry[1]}

    def put_local(self, key: str, value: bytes) -> GlobalRef:
        """Server-side insert: place the value in a fresh object."""
        obj = self.runtime.create_object(self.node_name, size=len(value),
                                         label=f"kv:{key}")
        obj.write(0, value)
        self._directory[key] = (str(obj.oid), len(value))
        return GlobalRef(obj.oid, 0, "read")


class ObjectKVClient:
    """Caller side of the object-space store.

    ``get`` resolves the key to a reference (cached after first use),
    then reads the value: a demand read for one-shot access, or a
    whole-object ``fetch_object`` when ``cache=True`` so later gets are
    local.
    """

    def __init__(self, runtime: GlobalSpaceRuntime, node_name: str,
                 client: RpcClient, endpoint: str):
        self.runtime = runtime
        self.node = runtime.node(node_name)
        self.client = client
        self.endpoint = endpoint
        self._refs: Dict[str, Tuple[GlobalRef, int]] = {}

    def _resolve(self, key: str):
        cached = self._refs.get(key)
        if cached is not None:
            return cached
        entry = yield from self.client.call(self.endpoint, "kv_lookup", key=key)
        from ..core.objectid import ObjectID

        ref = GlobalRef(ObjectID.from_hex(entry["oid"]), 0, "read")
        self._refs[key] = (ref, entry["size"])
        return ref, entry["size"]

    def get(self, key: str, cache: bool = False):
        """Process: read the value bytes behind ``key``.

        ``cache=True`` pulls the whole object here first; later gets of
        the same key are then served locally.
        """
        ref, size = yield from self._resolve(key)
        if cache or ref.oid in self.node.space:
            if ref.oid not in self.node.space:
                yield self.node.sim.spawn(self.node.fetch_object(ref.oid),
                                          name=f"kv-fetch-{key}")
            return self.node.space.get(ref.oid).read(0, size)
        data = yield from self.node.remote_read(ref.oid, 0, size)
        return data
