"""The RPC baseline stack: serializer, stubs, and the
Wang-et-al ref-RPC variant — everything the paper argues against,
implemented faithfully enough to lose fairly."""

from .refrpc import RefRpcClient, RefRpcServer, RemoteRef
from .serializer import (
    SerializationClock,
    SerializeError,
    decode,
    encode,
    encoded_size,
)
from .stubs import RpcClient, RpcError, RpcServer, RpcTimeout

__all__ = [
    "encode",
    "decode",
    "encoded_size",
    "SerializeError",
    "SerializationClock",
    "RpcServer",
    "RpcClient",
    "RpcError",
    "RpcTimeout",
    "RemoteRef",
    "RefRpcServer",
    "RefRpcClient",
]
