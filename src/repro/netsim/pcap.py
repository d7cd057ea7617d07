"""Packet trace recording (a tcpdump for the simulator).

A :class:`TraceRecorder` attaches to programmable switches (as an
ingress and/or egress program that passes packets through unchanged) and
to links' drop hooks, accumulating a bounded in-memory trace that can be
filtered and exported to CSV.  Invaluable when a benchmark's numbers
look wrong and the question is "where did that packet actually go?".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .links import Link
from .node import ProgrammableSwitch
from .packet import Packet

__all__ = ["TraceEntry", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEntry:
    """One observed packet event."""

    t: float
    where: str  # "<node>:ingress" / "<node>:egress" / "<link>:drop"
    packet_id: int
    src: str
    dst: str
    flow_label: int
    wire_bytes: int
    tango_path_id: Optional[int]
    tango_seq: Optional[int]
    note: str = ""

    def as_row(self) -> dict:
        return {
            "t": self.t,
            "where": self.where,
            "packet_id": self.packet_id,
            "src": self.src,
            "dst": self.dst,
            "flow": self.flow_label,
            "bytes": self.wire_bytes,
            "path_id": "" if self.tango_path_id is None else self.tango_path_id,
            "seq": "" if self.tango_seq is None else self.tango_seq,
            "note": self.note,
        }


class TraceRecorder:
    """Bounded in-memory packet trace.

    Args:
        max_entries: oldest entries are evicted beyond this bound, so a
            forgotten recorder cannot eat the heap on a long campaign.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self.entries: list[TraceEntry] = []
        self.evicted = 0

    # -- attachment ------------------------------------------------------------

    def tap(
        self, switch: ProgrammableSwitch, direction: str = "ingress"
    ) -> None:
        """Attach to a programmable switch (pass-through program)."""
        if direction not in ("ingress", "egress"):
            raise ValueError(f"direction must be ingress/egress, got {direction}")
        where = f"{switch.name}:{direction}"

        def program(sw: ProgrammableSwitch, packet: Packet) -> Packet:
            self._record(sw.sim.now, where, packet)
            return packet

        if direction == "ingress":
            switch.attach_ingress(program)
        else:
            switch.attach_egress(program)

    def tap_drops(self, link: Link) -> None:
        """Record every packet a link drops, with the reason."""

        def hook(packet: Packet, reason: str) -> None:
            # Link drop hooks do not carry time; the entry records the
            # moment of the drop via the owning simulator if reachable,
            # else -1 (links always have src nodes with sims).
            now = link.src.sim.now if hasattr(link.src, "sim") else -1.0
            self._record(now, f"{link.name}:drop", packet, note=reason)

        link.on_drop(hook)

    # -- recording --------------------------------------------------------------

    def _record(
        self, t: float, where: str, packet: Packet, note: str = ""
    ) -> None:
        entry = TraceEntry(
            t=t,
            where=where,
            packet_id=packet.packet_id,
            src=str(packet.src),
            dst=str(packet.dst),
            flow_label=packet.flow_label,
            wire_bytes=packet.wire_bytes,
            tango_path_id=packet.path_id,
            tango_seq=packet.seq,
            note=note,
        )
        self.entries.append(entry)
        if len(self.entries) > self.max_entries:
            overflow = len(self.entries) - self.max_entries
            del self.entries[:overflow]
            self.evicted += overflow

    # -- queries ------------------------------------------------------------------

    def packet_journey(self, packet_id: int) -> list[TraceEntry]:
        """Every recorded hop of one packet, in time order."""
        return sorted(
            (e for e in self.entries if e.packet_id == packet_id),
            key=lambda e: e.t,
        )

    def filter(
        self,
        where: Optional[str] = None,
        flow_label: Optional[int] = None,
        path_id: Optional[int] = None,
    ) -> list[TraceEntry]:
        """Entries matching every given criterion."""
        out = self.entries
        if where is not None:
            out = [e for e in out if e.where == where]
        if flow_label is not None:
            out = [e for e in out if e.flow_label == flow_label]
        if path_id is not None:
            out = [e for e in out if e.tango_path_id == path_id]
        return list(out)

    def save_csv(self, path: Union[str, Path]) -> Path:
        """Write the trace as CSV; returns the path."""
        target = Path(path)
        with target.open("w", newline="") as handle:
            writer = csv.DictWriter(
                handle,
                fieldnames=[
                    "t",
                    "where",
                    "packet_id",
                    "src",
                    "dst",
                    "flow",
                    "bytes",
                    "path_id",
                    "seq",
                    "note",
                ],
            )
            writer.writeheader()
            for entry in self.entries:
                writer.writerow(entry.as_row())
        return target

    def __len__(self) -> int:
        return len(self.entries)
