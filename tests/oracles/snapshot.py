"""Oracle fingerprint: the whole network rehashed on every call.

This is the original :func:`repro.bgp.snapshot.network_fingerprint`,
before its lines were memoised per router and per network.  It formats
every ``R|``, ``O|`` and ``S|`` line afresh from the live configuration,
so it cannot go stale; production's digest must equal it byte for byte
after any sequence of mutations.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.bgp.attributes import RouteAttributes
from repro.bgp.network import BgpNetwork


def _attr_token(attrs: RouteAttributes) -> str:
    communities = ",".join(sorted(str(c) for c in attrs.communities))
    large = ",".join(sorted(str(c) for c in attrs.large_communities))
    return (
        f"{attrs.as_path}|{int(attrs.origin)}|{attrs.local_pref}"
        f"|{attrs.med}|{communities}|{large}"
    )


def full_fingerprint(network: BgpNetwork) -> Optional[str]:
    digest = hashlib.sha256()
    for name in sorted(network.routers):
        router = network.routers[name]
        if router.import_policies or router.export_policies:
            return None
        digest.update(
            f"R|{name}|{router.asn}|{int(router.allowas_in)}"
            f"|{int(router.strip_private_on_export)}\n".encode()
        )
        originated = sorted(
            (str(prefix), attrs) for prefix, attrs in router.originated.items()
        )
        # Texts are unique per router, so the attributes never compare.
        for text, attrs in originated:
            digest.update(f"O|{name}|{text}|{_attr_token(attrs)}\n".encode())
    for a, b in sorted(network._session_meta):
        rel, a_pref, b_pref = network._session_meta[(a, b)]
        digest.update(f"S|{a}|{b}|{rel.name}|{a_pref}|{b_pref}\n".encode())
    return digest.hexdigest()
