"""Property: the exact-match FIB agrees with the linear-scan oracle.

Random ``add_route``/``remove_route`` sequences over mixed IPv4/IPv6
prefixes — ``/0``, host routes, nested and re-added prefixes — are
applied to :class:`repro.netsim.node.Fib` and to the original scan
(``tests/oracles/fib.py``).  After every step, ``lookup`` on addresses
inside, at the edges of and just outside every prefix returns the same
entry, and ``routes()``/``len()`` agree.  ``RouterNode.is_local`` is held
to the original scan the same way.
"""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.node import Fib
from repro.netsim.topology import Network
from tests.oracles.fib import OracleFib, is_local

#: Base addresses sharing leading bits, so drawn prefixes nest and overlap.
V4_BASES = ["10.0.0.1", "10.0.0.200", "10.1.2.3", "192.168.1.1", "0.0.0.0"]
V6_BASES = [
    "2001:db8::1",
    "2001:db8::ff",
    "2001:db8:0:1::1",
    "2001:db8:1::1",
    "fe80::1",
]
V4_LENGTHS = [0, 8, 16, 24, 25, 31, 32]
V6_LENGTHS = [0, 32, 48, 56, 64, 127, 128]

#: A few distinct link sets; equal entries must carry the same one.
LINKS = [("a",), ("b",), ("c", "d")]


@st.composite
def prefixes(draw):
    if draw(st.booleans()):
        base, length = draw(st.sampled_from(V4_BASES)), draw(st.sampled_from(V4_LENGTHS))
    else:
        base, length = draw(st.sampled_from(V6_BASES)), draw(st.sampled_from(V6_LENGTHS))
    return ipaddress.ip_network(f"{base}/{length}", strict=False)


operations = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove"]), prefixes(), st.sampled_from(LINKS)),
    max_size=25,
)


def probe_addresses(networks, extra):
    """Every base address, each prefix's first and last address and the
    addresses just outside it, plus ``extra``."""
    out = {ipaddress.ip_address(a) for a in V4_BASES + V6_BASES}
    out.update(extra)
    for net in networks:
        first, last = net.network_address, net.broadcast_address
        out.update((first, last))
        top = 2 ** net.max_prefixlen - 1
        if int(first) > 0:
            out.add(first - 1)
        if int(last) < top:
            out.add(last + 1)
    return sorted(out, key=lambda a: (a.version, int(a)))


def key(entry):
    return None if entry is None else (entry.prefix, tuple(entry.links))


extra_addresses = st.lists(
    st.one_of(
        st.integers(0, 2**32 - 1).map(ipaddress.IPv4Address),
        st.integers(0, 2**128 - 1).map(ipaddress.IPv6Address),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations, extra=extra_addresses)
def test_lookup_matches_linear_scan(ops, extra):
    fib, oracle = Fib(), OracleFib()
    for op, prefix, links in ops:
        if op == "add":
            assert key(fib.add_route(prefix, links)) == key(oracle.add_route(prefix, links))
        else:
            assert fib.remove_route(prefix) == oracle.remove_route(prefix)
        assert len(fib) == len(oracle)
        assert [key(e) for e in fib.routes()] == [key(e) for e in oracle.routes()]
        for address in probe_addresses([p for _, p, _ in ops], extra):
            assert key(fib.lookup(address)) == key(oracle.lookup(address)), address


def test_text_prefixes_and_replacement():
    fib, oracle = Fib(), OracleFib()
    for table in (fib, oracle):
        table.add_route("2001:db8::/32", ["x"])
        table.add_route("2001:db8::/32", ["y"])  # replaces, not duplicates
        table.add_route("0.0.0.0/0", ["z"])
    assert len(fib) == len(oracle) == 2
    address = ipaddress.ip_address("2001:db8::5")
    assert key(fib.lookup(address)) == key(oracle.lookup(address))
    assert fib.lookup(address).links == ["y"]
    assert fib.remove_route("2001:db8::/32") and not fib.remove_route("2001:db8::/32")
    assert fib.lookup(address) is None
    assert fib.lookup(ipaddress.ip_address("10.9.8.7")).links == ["z"]


@settings(max_examples=100, deadline=None)
@given(networks=st.lists(prefixes(), max_size=12), extra=extra_addresses)
def test_is_local_matches_linear_scan(networks, extra):
    router = Network().add_router("r")
    for network in networks:
        router.add_local_network(network)
    for address in probe_addresses(networks, extra):
        assert router.is_local(address) == is_local(networks, address), address
