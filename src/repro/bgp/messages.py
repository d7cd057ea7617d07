"""BGP UPDATE messages: announcements and withdrawals."""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .attributes import RouteAttributes

__all__ = ["Prefix", "Announcement", "Withdrawal", "as_prefix", "prefix_text"]

Prefix = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


class _Canonical:
    """Mixin for the canonical network classes: the hash and the text are
    computed once, at construction.

    ``ipaddress`` recomputes ``int(network_address) ^ int(netmask)`` on
    every hash and reformats the address on every ``str``; the BGP engine
    hashes a prefix on every RIB access.  Equality, hashing and ordering
    agree with the plain ``ipaddress`` classes, so plain and canonical
    networks find the same dict entries.
    """

    __slots__ = ()

    def __init__(self, address: object, strict: bool = True) -> None:
        super().__init__(address, strict)  # type: ignore[call-arg]
        self._hash = super().__hash__()
        self._text = super().__str__()

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"{self._plain.__name__}({self._text!r})"

    def __reduce__(self) -> tuple:
        # Unpickling (in this process or a worker) and ``copy`` both
        # rebuild through the intern table, so they return the canonical
        # instance.
        return (as_prefix, (self._text,))


class _CanonicalIPv4Network(_Canonical, ipaddress.IPv4Network):
    __slots__ = ("_hash", "_text")
    _plain = ipaddress.IPv4Network


class _CanonicalIPv6Network(_Canonical, ipaddress.IPv6Network):
    __slots__ = ("_hash", "_text")
    _plain = ipaddress.IPv6Network


_CANONICAL_TYPES = (_CanonicalIPv4Network, _CanonicalIPv6Network)


@lru_cache(maxsize=None)
def as_prefix(value: Union[str, Prefix]) -> Prefix:
    """The canonical instance of a prefix given as text or as a network.

    Every distinct network has one canonical instance, an
    ``IPv4Network``/``IPv6Network`` subclass that stores its hash and its
    text.  It is equal to, and hashes like, the plain ``ipaddress``
    object, prints the same, and survives ``pickle`` and ``deepcopy`` as
    itself.

    The cache is the intern table.  It is keyed by value, so a plain
    network or any spelling of its text finds the canonical instance
    equal to it.  It is unbounded, because a bound would mint a second
    instance of an evicted prefix; a scenario's prefixes number in the
    hundreds.  The mapping is a pure function of the value, so a forked
    worker's copy of it is as good as the parent's.
    """
    if isinstance(value, str):
        return as_prefix(ipaddress.ip_network(value))
    if type(value) in _CANONICAL_TYPES:
        # Also one that ``ipaddress`` derived from a canonical network
        # (``subnets()``, ``supernet()``), the first of its value seen.
        return value
    if value.version == 4:
        return _CanonicalIPv4Network(value)
    return _CanonicalIPv6Network(value)


def prefix_text(prefix: Prefix) -> str:
    """Canonical text of ``prefix``, formatted once per distinct prefix.

    The BGP engine orders prefixes by this text wherever order must not
    depend on set iteration, and fingerprints hash it.
    """
    try:
        return prefix._text  # type: ignore[union-attr]
    except AttributeError:  # a plain ``ipaddress`` network
        return as_prefix(prefix)._text  # type: ignore[union-attr]


@dataclass(frozen=True)
class Announcement:
    """A reachability announcement for one prefix.

    The attribute bundle's AS path already includes the sender's ASN
    (exports prepend before sending, as real BGP speakers do).
    """

    prefix: Prefix
    attributes: RouteAttributes

    def __str__(self) -> str:
        return f"{self.prefix} via [{self.attributes.as_path}]"


@dataclass(frozen=True)
class Withdrawal:
    """Withdrawal of a previously announced prefix."""

    prefix: Prefix

    def __str__(self) -> str:
        return f"withdraw {self.prefix}"
