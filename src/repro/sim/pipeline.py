"""Cross-frame pipelining: steady-state throughput vs single-frame latency.

The paper notes the ORIANNA hardware is "always fully pipelined": while
one frame's linear system is being decomposed, the next frame's factor
computation can already stream through the factor computing block.  This
module replicates a frame program K times with disjoint register
namespaces (successive frames process fresh sensor data; a pipelined
estimator warm-starts from its prediction, so no instruction-level
dependency crosses frames) and measures the steady-state cycles/frame an
out-of-order controller achieves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.compiler.isa import Instruction, Program
from repro.hw.accelerator import AcceleratorConfig
from repro.sim.engine import Simulator


def replicate_frames(program: Program, frames: int) -> Program:
    """Concatenate ``frames`` register-renamed copies of a frame program."""
    if frames < 1:
        raise SimulationError("frames must be >= 1")
    out = Program(algorithm=program.algorithm)
    for frame in range(frames):
        prefix = f"f{frame}:"
        for instr in program.instructions:
            clone = Instruction(
                uid=len(out.instructions),
                op=instr.op,
                srcs=[prefix + s for s in instr.srcs],
                dsts=[prefix + d for d in instr.dsts],
                meta=dict(instr.meta),
                phase=instr.phase,
                algorithm=f"{instr.algorithm}@{frame}" if instr.algorithm
                else f"frame{frame}",
                provenance=instr.provenance,
            )
            out.instructions.append(clone)
            out._counter = len(out.instructions)
        for reg, shape in program.register_shapes.items():
            out.register_shapes[prefix + reg] = shape
    return out


@dataclass
class ThroughputResult:
    """Latency-vs-throughput comparison for one frame workload."""

    single_frame_cycles: int
    frames: int
    pipelined_total_cycles: int

    @property
    def cycles_per_frame(self) -> float:
        """Steady-state initiation interval (amortized)."""
        return self.pipelined_total_cycles / self.frames

    @property
    def pipelining_gain(self) -> float:
        """How much faster frames complete in steady state vs isolated."""
        if self.cycles_per_frame == 0:
            return 1.0
        return self.single_frame_cycles / self.cycles_per_frame


def steady_state_throughput(program: Program,
                            config: Optional[AcceleratorConfig] = None,
                            policy: str = "ooo",
                            frames: int = 4) -> ThroughputResult:
    """Measure cycles/frame when ``frames`` frames stream back to back."""
    sim = Simulator(config)
    single = sim.run(program, policy).total_cycles
    replicated = replicate_frames(program, frames)
    total = sim.run(replicated, policy).total_cycles
    return ThroughputResult(
        single_frame_cycles=single,
        frames=frames,
        pipelined_total_cycles=total,
    )
