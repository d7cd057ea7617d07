"""BGP UPDATE messages: announcements and withdrawals."""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .attributes import RouteAttributes

__all__ = ["Prefix", "Announcement", "Withdrawal", "as_prefix", "prefix_text"]

Prefix = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


def as_prefix(value: Union[str, Prefix]) -> Prefix:
    """Normalize a prefix argument to an ``ip_network`` object."""
    if isinstance(value, str):
        return ipaddress.ip_network(value)
    return value


@lru_cache(maxsize=16384)
def prefix_text(prefix: Prefix) -> str:
    """Canonical text of ``prefix``, formatted once per distinct prefix.

    The BGP engine orders prefixes by this text wherever order must not
    depend on set iteration, and fingerprints hash it; ``str()`` on an
    ``ipaddress`` network re-formats the address on every call.  The
    bound only caps memory: a scenario's prefixes number in the hundreds.
    """
    return str(prefix)


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
