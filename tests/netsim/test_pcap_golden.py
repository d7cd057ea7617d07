"""Golden packet capture: a short seeded Tango run, tapped at both edges.

The capture pins what the packet model puts on the wire — addresses,
wire sizes (with and without the auth tag), Tango path ids and sequence
numbers, drops — through encapsulation, an in-flight sequence rewrite, a
blackholed path and decapsulation.  Any change to the packet
representation must reproduce ``golden/pcap_tango.csv`` byte for byte.

Regenerate (only when the wire format is meant to change) with::

    PYTHONPATH=src python -m tests.netsim.test_pcap_golden OUT.csv
"""

import dataclasses
import sys
from pathlib import Path

from repro.faults.adversary import AdversaryChain, GrayLoss
from repro.netsim.pcap import TraceRecorder
from repro.netsim.trace import PacketFactory
from repro.scenarios.vultr import VultrDeployment

GOLDEN = Path(__file__).parent / "golden" / "pcap_tango.csv"


def capture(path: Path) -> Path:
    """Run the seeded scenario and write its capture to ``path``."""
    d = VultrDeployment(auth_key=b"golden-capture-key")
    d.establish()
    recorder = TraceRecorder()
    for switch in (d.gw_ny_switch, d.gw_la_switch):
        recorder.tap(switch, "ingress")
        recorder.tap(switch, "egress")
    for name, link in sorted(d.net.links.items()):
        if ":" in name:  # wide-area links
            recorder.tap_drops(link)
    d.start_path_probes("ny", interval_s=0.05)
    d.start_path_probes("la", interval_s=0.05)
    factory = PacketFactory(
        src=str(d.pairing.edge("ny").host_address(7)),
        dst=str(d.pairing.edge("la").host_address(7)),
        payload_bytes=1200,
        flow_label=5,
    )
    send = d.sender_for("ny")
    for i in range(10):
        d.sim.schedule_at(0.01 + i * 0.03, lambda: send(factory.build()))
    label = d.path_labels("ny")[0]
    d.fail_path("ny", label, at=0.2)
    gray = GrayLoss(start=0.0, end=1.0, rate=0.3, seed=11)
    AdversaryChain.install_on(d.wan_link("la", d.path_labels("la")[1])).add(gray)
    d.net.run(until=0.4)
    # Packet ids come from a process-wide counter; number them by first
    # appearance so the capture does not depend on what ran before.
    ids: dict[int, int] = {}
    recorder.entries = [
        dataclasses.replace(e, packet_id=ids.setdefault(e.packet_id, len(ids) + 1))
        for e in recorder.entries
    ]
    return recorder.save_csv(path)


def test_capture_matches_golden(tmp_path):
    out = capture(tmp_path / "capture.csv")
    assert out.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    capture(Path(sys.argv[1]))
