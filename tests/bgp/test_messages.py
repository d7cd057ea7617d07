"""Tests for message types and prefix normalization."""

import ipaddress

import pytest

from repro.bgp.attributes import AsPath, RouteAttributes
from repro.bgp.messages import Announcement, Withdrawal, as_prefix, prefix_text
from repro.bgp.poisoning import poison_targets, poisoned_attributes


class TestAsPrefix:
    def test_string_normalized(self):
        assert as_prefix("2001:db8::/32") == ipaddress.ip_network("2001:db8::/32")

    def test_network_passthrough(self):
        network = ipaddress.ip_network("10.0.0.0/8")
        assert as_prefix(network) is network

    def test_invalid_string_raises(self):
        with pytest.raises(ValueError):
            as_prefix("not-a-prefix")


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
