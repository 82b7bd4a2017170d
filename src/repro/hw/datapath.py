"""Automatic datapath generation between circuit blocks (Sec. 6, novelty 1).

Given a compiled program, this module derives which unit classes exchange
data and with how much traffic, and sizes the point-to-point connections
and the shared on-chip buffer accordingly — "the connections between
different circuit blocks are automatically generated based on the
dedicated data flow of the matrix operations."
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.compiler.isa import Opcode, Program, UNIT_NONE

BYTES_PER_WORD = 4


@dataclass
class Connection:
    """A generated producer->consumer datapath link."""

    src_unit: str
    dst_unit: str
    transfers: int = 0
    words: int = 0

    @property
    def width_bits(self) -> int:
        """Bus width sized to the average transfer, rounded to powers of 2."""
        if self.transfers == 0:
            return 32
        avg_words = max(1, self.words // self.transfers)
        return min(512, 32 * (2 ** math.ceil(math.log2(avg_words))))


@dataclass
class DataPath:
    """The generated interconnect of one accelerator instance."""

    connections: Dict[Tuple[str, str], Connection] = field(
        default_factory=dict
    )
    buffer_words_peak: int = 0

    def total_traffic_words(self) -> int:
        return sum(c.words for c in self.connections.values())

    def describe(self) -> List[str]:
        lines = []
        for (src, dst), conn in sorted(self.connections.items()):
            lines.append(
                f"{src:>8} -> {dst:<8} {conn.transfers:6d} transfers, "
                f"{conn.words:8d} words, bus {conn.width_bits} bits"
            )
        return lines


def _words(shape: Tuple[int, ...]) -> int:
    count = 1
    for d in shape:
        count *= d
    return count


def generate_datapath(program: Program) -> DataPath:
    """Derive connections and buffer peak from register def-use flow."""
    datapath = DataPath()
    producer_unit: Dict[str, str] = {}
    last_use: Dict[str, int] = {}

    for instr in program.instructions:
        for src in instr.srcs:
            last_use[src] = instr.uid
        for dst in instr.dsts:
            producer_unit[dst] = instr.unit

    # Connections: producer unit -> consumer unit per source operand.
    for instr in program.instructions:
        if instr.unit == UNIT_NONE:
            continue
        for src in instr.srcs:
            src_unit = producer_unit.get(src, UNIT_NONE)
            key = (src_unit, instr.unit)
            conn = datapath.connections.get(key)
            if conn is None:
                conn = Connection(src_unit, instr.unit)
                datapath.connections[key] = conn
            conn.transfers += 1
            conn.words += _words(program.register_shapes[src])

    # Peak live words: registers alive between definition and last use.
    # Sweep program order, which matches issue order for in-order execution
    # and bounds the out-of-order live set.
    live: Dict[str, int] = {}
    peak = 0
    expiry: Dict[int, List[str]] = {}
    for reg, uid in last_use.items():
        expiry.setdefault(uid, []).append(reg)
    for instr in program.instructions:
        if instr.op is not Opcode.CONST:
            for dst in instr.dsts:
                live[dst] = _words(program.register_shapes[dst])
        peak = max(peak, sum(live.values()))
        for reg in expiry.get(instr.uid, ()):
            live.pop(reg, None)
    datapath.buffer_words_peak = peak
    return datapath


def required_buffer_kib(program: Program, headroom: float = 1.25) -> int:
    """Buffer capacity (KiB) to hold the peak live set with headroom."""
    peak_words = generate_datapath(program).buffer_words_peak
    bytes_needed = peak_words * BYTES_PER_WORD * headroom
    return max(4, int(math.ceil(bytes_needed / 1024.0)))
