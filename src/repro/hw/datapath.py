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
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.compiler.isa import Program, UNIT_NONE

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


def generate_datapath(program: Program) -> DataPath:
    """Derive connections and buffer peak from register def-use flow
    (the program's :class:`~repro.compiler.isa.DefUse`)."""
    datapath = DataPath()
    analysis = program.def_use()
    units = analysis.units
    registers = analysis.registers

    # Connections: producer unit -> consumer unit per source operand; a
    # constant (or undefined) operand comes from no unit.
    for instr, unit in zip(program.instructions, units):
        if unit == UNIT_NONE:
            continue
        for src in instr.srcs:
            use = registers.get(src)
            if use is None:
                key = (UNIT_NONE, unit)
                words = math.prod(program.register_shapes[src])
            else:
                producer, _, words = use
                key = (units[producer], unit)
            conn = datapath.connections.get(key)
            if conn is None:
                conn = Connection(*key)
                datapath.connections[key] = conn
            conn.transfers += 1
            conn.words += words

    # Peak live words: registers alive from definition through their
    # last use, or to the end when nothing reads them.  Sweep program
    # order, which matches issue order for in-order execution and
    # bounds the out-of-order live set.
    change = [0] * (len(units) + 1)
    for producer, readers, words in registers.values():
        change[producer] += words
        if readers:
            change[readers[-1] + 1] -= words
    datapath.buffer_words_peak = max(accumulate(change))
    return datapath


def required_buffer_kib(program: Program, headroom: float = 1.25) -> int:
    """Buffer capacity (KiB) to hold the peak live set with headroom."""
    peak_words = generate_datapath(program).buffer_words_peak
    bytes_needed = peak_words * BYTES_PER_WORD * headroom
    return max(4, int(math.ceil(bytes_needed / 1024.0)))
