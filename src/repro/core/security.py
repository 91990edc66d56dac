"""Access control over the global object space.

§1 motivates references that outrun the holder's own privileges: "the
invoker may wish to refer to data that they lack privileges to read",
and §2 adds the policy driving it: "users prefer local models remain
local due to confidentiality concerns."

The model here is deliberately simple (principals are host names, one
ACL per object) but enforces the two properties the paper's argument
needs:

* a :class:`~repro.core.refs.GlobalRef` is *not* authority — it names
  data; whether a dereference succeeds depends on where it happens
  (opaque references can always be *passed*, the pass-only capability);
* confidentiality constrains *placement*: a computation over private
  data can only run where the data may be read, so the rendezvous
  engine must fold ACLs into its candidate set (the runtime does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Set, Union

from .objectid import ObjectID

__all__ = ["ObjectACL", "PolicyRegistry", "PUBLIC", "AccessDenied"]


class _Public:
    """Sentinel: everyone may perform the operation."""

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "PUBLIC"


PUBLIC = _Public()

_PrincipalSet = Union[_Public, FrozenSet[str]]


class AccessDenied(Exception):
    """An operation was attempted by a principal the ACL excludes."""


def _normalize(principals: Union[_Public, Iterable[str]]) -> _PrincipalSet:
    if isinstance(principals, _Public):
        return PUBLIC
    return frozenset(principals)


@dataclass(frozen=True)
class ObjectACL:
    """Who may read / write / administer one object.

    The owner is always allowed everything.  ``readers``/``writers`` are
    either :data:`PUBLIC` or explicit principal sets.
    """

    owner: str
    readers: _PrincipalSet = PUBLIC
    writers: _PrincipalSet = field(default_factory=frozenset)

    def can_read(self, principal: str) -> bool:
        """Whether ``principal`` may read under this ACL."""
        if principal == self.owner:
            return True
        if isinstance(self.readers, _Public):
            return True
        return principal in self.readers

    def can_write(self, principal: str) -> bool:
        """Whether ``principal`` may write under this ACL."""
        if principal == self.owner:
            return True
        if isinstance(self.writers, _Public):
            return True
        return principal in self.writers

    def with_reader(self, principal: str) -> "ObjectACL":
        """Grant read access to one more principal."""
        if isinstance(self.readers, _Public):
            return self
        return ObjectACL(self.owner, self.readers | {principal}, self.writers)


class PolicyRegistry:
    """The cluster's ACL table: absent entries mean 'unprotected'.

    One registry is shared by all nodes of a runtime — it stands in for
    policy state that a real system would replicate or attach to the
    objects themselves.
    """

    def __init__(self) -> None:
        self._acls: Dict[ObjectID, ObjectACL] = {}
        self.denials = 0

    def protect(self, oid: ObjectID, owner: str,
                readers: Union[_Public, Iterable[str]] = PUBLIC,
                writers: Union[_Public, Iterable[str]] = ()) -> ObjectACL:
        """Attach (or replace) the ACL for ``oid``."""
        acl = ObjectACL(owner, _normalize(readers), _normalize(writers))
        self._acls[oid] = acl
        return acl

    # -- checks -------------------------------------------------------------
    def check_read(self, oid: ObjectID, principal: str) -> None:
        """Raise :class:`AccessDenied` unless ``principal`` may read."""
        acl = self._acls.get(oid)
        if acl is not None and not acl.can_read(principal):
            self.denials += 1
            raise AccessDenied(
                f"{principal!r} may not read object {oid.short()} "
                f"(owner {acl.owner!r})"
            )

    def check_write(self, oid: ObjectID, principal: str) -> None:
        """Raise :class:`AccessDenied` unless ``principal`` may write."""
        acl = self._acls.get(oid)
        if acl is not None and not acl.can_write(principal):
            self.denials += 1
            raise AccessDenied(
                f"{principal!r} may not write object {oid.short()} "
                f"(owner {acl.owner!r})"
            )

    def allows_read(self, oid: ObjectID, principal: str) -> bool:
        """Boolean read check (no exception, no denial count)."""
        acl = self._acls.get(oid)
        return acl is None or acl.can_read(principal)

    def readable_nodes(self, oids: Iterable[ObjectID],
                       candidates: Iterable[str]) -> Set[str]:
        """Filter a candidate node set down to those allowed to read
        every object of ``oids`` — the placement constraint
        confidentiality imposes.  One ACL lookup per object, whatever
        the number of candidates."""
        names = set(candidates)
        for oid in oids:
            acl = self._acls.get(oid)
            if acl is not None:
                names = {name for name in names if acl.can_read(name)}
        return names
