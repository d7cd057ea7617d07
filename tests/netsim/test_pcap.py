"""Tests for the packet trace recorder."""

import ipaddress

import pytest

from repro.netsim.links import ConstantLoss
from repro.netsim.pcap import TraceRecorder
from repro.netsim.packet import Packet
from repro.netsim.topology import Network


def make_packet(flow=0, dst="2001:db8:20::1"):
    return Packet(
        ipaddress.IPv6Address("2001:db8:10::1"),
        ipaddress.IPv6Address(dst),
        sport=1,
        dport=2,
        payload_bytes=32,
        flow_label=flow,
    )


def build():
    net = Network()
    sw = net.add_switch("sw")
    sink = net.add_host("sink")
    link = net.add_link("out", sw, sink, delay_s=0.001)
    sw.fib.add_route("2001:db8:20::/48", link)
    return net, sw, link


class TestTaps:
    def test_ingress_tap_records_and_passes_through(self):
        net, sw, link = build()
        recorder = TraceRecorder()
        recorder.tap(sw, "ingress")
        net.inject(sw, make_packet(flow=7))
        net.run()
        assert len(recorder) == 1
        entry = recorder.entries[0]
        assert entry.where == "sw:ingress"
        assert entry.flow_label == 7
        assert link.stats.delivered == 1  # pass-through, not consumed

    def test_egress_tap(self):
        net, sw, link = build()
        recorder = TraceRecorder()
        recorder.tap(sw, "egress")
        net.inject(sw, make_packet())
        net.run()
        assert recorder.entries[0].where == "sw:egress"

    def test_drop_tap_records_reason(self):
        net, sw, link = build()
        link.loss = ConstantLoss(1.0)
        recorder = TraceRecorder()
        recorder.tap_drops(link)
        net.inject(sw, make_packet())
        net.run()
        assert len(recorder) == 1
        assert recorder.entries[0].where == "out:drop"
        assert recorder.entries[0].note == "loss"

    def test_invalid_direction(self):
        net, sw, _ = build()
        with pytest.raises(ValueError):
            TraceRecorder().tap(sw, "sideways")


class TestQueriesAndExport:
    def test_packet_journey(self):
        net, sw, _ = build()
        recorder = TraceRecorder()
        recorder.tap(sw, "ingress")
        recorder.tap(sw, "egress")
        packet = make_packet()
        net.inject(sw, packet)
        net.run()
        journey = recorder.packet_journey(packet.packet_id)
        assert [e.where for e in journey] == ["sw:ingress", "sw:egress"]

    def test_filter_by_flow(self):
        net, sw, _ = build()
        recorder = TraceRecorder()
        recorder.tap(sw, "ingress")
        net.inject(sw, make_packet(flow=1))
        net.inject(sw, make_packet(flow=2))
        net.run()
        assert len(recorder.filter(flow_label=1)) == 1

    def test_tango_fields_extracted(self):
        from repro.dataplane.encap import encapsulate

        net, sw, _ = build()
        recorder = TraceRecorder()
        recorder.tap(sw, "ingress")
        packet = make_packet(dst="2001:db8:99::1")
        encapsulate(
            packet,
            src="2001:db8:a0::1",
            dst="2001:db8:20::1",
            path_id=3,
            timestamp_ns=0,
            seq=17,
        )
        net.inject(sw, packet)
        net.run()
        entry = recorder.entries[0]
        assert entry.tango_path_id == 3
        assert entry.tango_seq == 17
        assert recorder.filter(path_id=3)

    def test_bounded_memory(self):
        net, sw, _ = build()
        recorder = TraceRecorder(max_entries=10)
        recorder.tap(sw, "ingress")
        for _ in range(25):
            net.inject(sw, make_packet())
        net.run()
        assert len(recorder) == 10
        assert recorder.evicted == 15

    def test_csv_export(self, tmp_path):
        net, sw, _ = build()
        recorder = TraceRecorder()
        recorder.tap(sw, "ingress")
        net.inject(sw, make_packet())
        net.run()
        out = recorder.save_csv(tmp_path / "trace.csv")
        text = out.read_text()
        assert "where" in text.splitlines()[0]
        assert "sw:ingress" in text

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_entries=0)
