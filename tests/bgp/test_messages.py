"""Tests for message types and prefix normalization."""

import copy
import ipaddress
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bgp.attributes import AsPath, RouteAttributes
from repro.bgp.messages import Announcement, Withdrawal, as_prefix, prefix_text
from repro.bgp.poisoning import poison_targets, poisoned_attributes
from tests.bgp.test_properties import PREFIXES

#: One prefix per address family.
FAMILIES = ("10.0.0.0/8", "2001:db8::/32")


class TestAsPrefix:
    def test_string_normalized(self):
        assert as_prefix("2001:db8::/32") == ipaddress.ip_network("2001:db8::/32")

    def test_network_passthrough(self):
        network = ipaddress.ip_network("10.0.0.0/8")
        canonical = as_prefix(network)
        assert canonical == network
        assert hash(canonical) == hash(network)
        assert canonical is as_prefix(str(network))
        assert isinstance(canonical, ipaddress.IPv4Network)

    def test_invalid_string_raises(self):
        with pytest.raises(ValueError):
            as_prefix("not-a-prefix")


@pytest.mark.parametrize("text", FAMILIES)
class TestCanonicalPrefix:
    def test_one_instance_per_network(self, text):
        network = ipaddress.ip_network(text)
        canonical = as_prefix(text)
        assert as_prefix(network) is canonical
        assert as_prefix(canonical) is canonical
        assert as_prefix(text.upper()) is canonical
        assert isinstance(canonical, type(network))

    def test_str_and_repr_unchanged(self, text):
        network = ipaddress.ip_network(text)
        assert str(as_prefix(text)) == str(network) == text
        assert repr(as_prefix(text)) == repr(network)

    def test_pickle_and_deepcopy_return_the_canonical_instance(self, text):
        canonical = as_prefix(text)
        assert pickle.loads(pickle.dumps(canonical)) is canonical
        assert copy.deepcopy(canonical) is canonical
        assert copy.copy(canonical) is canonical
        assert copy.deepcopy({canonical: [canonical]}) == {canonical: [canonical]}

    def test_plain_and_canonical_keys_find_each_other(self, text):
        network = ipaddress.ip_network(text)
        canonical = as_prefix(text)
        assert {network: "plain"}[canonical] == "plain"
        assert {canonical: "canonical"}[network] == "canonical"
        assert len({network, canonical}) == 1

    def test_derived_networks_keep_value_semantics(self, text):
        canonical = as_prefix(text)
        plain = ipaddress.ip_network(text)
        first = next(canonical.subnets())
        assert first == next(plain.subnets())
        assert hash(first) == hash(next(plain.subnets()))
        assert str(first) == str(next(plain.subnets()))
        assert as_prefix(first) is as_prefix(str(first))
        assert canonical.supernet() == plain.supernet()


#: Interns the prefixes given as arguments, in that order, then builds a
#: fixed three-tier network with both address families originated and
#: prints it as text.  With no arguments it is a cold build.
BUILD_AND_DUMP = """
import sys
from repro.bgp.messages import as_prefix
from repro.bgp.snapshot import network_fingerprint
from tests.bgp.test_properties import PREFIXES, converge_with, topology_spec

for text in sys.argv[1:]:
    as_prefix(text)
routers, sessions, stubs = topology_spec(3, [[0, 1], [2], [1, 5]], [[0], [1, 2], [2]])
origins = [(stubs[i % len(stubs)], p) for i, p in enumerate(PREFIXES)]
net = converge_with(routers, sessions, origins)
for name in sorted(net.routers):
    routes = net.routers[name].loc_rib.routes()
    for prefix in sorted(routes, key=str):
        print(name, prefix, routes[prefix].neighbor, routes[prefix].as_path.asns)
print(network_fingerprint(net))
"""


def build_and_dump(*pre_interned):
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    return subprocess.run(
        [sys.executable, "-c", BUILD_AND_DUMP, *pre_interned],
        capture_output=True, text=True, check=True, env=env, cwd=root,
    ).stdout


def test_pre_interned_build_matches_a_cold_build():
    """Which prefixes were interned first, and in what order, cannot
    change the fixpoint or the fingerprint."""
    # An upper-case spelling interned first must not leak into the text.
    texts = [str(p).upper() for p in PREFIXES] + ["10.0.0.0/16", "2001:db8::/56"]
    random.Random(7).shuffle(texts)
    cold = build_and_dump()
    assert build_and_dump(*texts) == cold
    assert cold.count("\n") > len(PREFIXES)


class TestPrefixText:
    def test_matches_str_for_both_families(self):
        for text in ("2001:db8:0:1::/64", "2001:db8::/32", "10.0.0.0/8"):
            network = ipaddress.ip_network(text)
            assert prefix_text(network) == str(network) == text

    def test_equal_prefixes_share_one_text(self):
        a = ipaddress.ip_network("2001:db8:1::/48")
        b = as_prefix("2001:db8:1::/48")
        assert a is not b
        assert prefix_text(a) is prefix_text(b)


class TestMessages:
    def test_announcement_renders_path(self):
        ann = Announcement(
            prefix=as_prefix("2001:db8::/48"),
            attributes=RouteAttributes(as_path=AsPath.of(1, 2)),
        )
        assert "1 2" in str(ann)

    def test_withdrawal_renders(self):
        assert "withdraw" in str(Withdrawal(as_prefix("2001:db8::/48")))

    def test_announcements_compare_by_value(self):
        a = Announcement(as_prefix("2001:db8::/48"), RouteAttributes())
        b = Announcement(as_prefix("2001:db8::/48"), RouteAttributes())
        assert a == b


class TestPoisoning:
    def test_targets_roundtrip(self):
        attrs = poisoned_attributes([174, 3356])
        assert poison_targets(attrs) == (174, 3356)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            poisoned_attributes([])

    def test_base_attributes_preserved(self):
        base = RouteAttributes(med=5)
        attrs = poisoned_attributes([1], base)
        assert attrs.med == 5
