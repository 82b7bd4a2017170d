"""Per-instruction value tracing for the MO-ISA interpreter.

The wallclock profiler (PR 6) made the interpreter's *time* observable;
this module makes its *values* observable — the semantic safety net for
every execution backend to come (ROADMAP item 2 keeps the interpreting
executor as the differential oracle for the fused/vectorized backend,
and ``tests/diff/`` can now say *where* two executions disagree, not
just that they do).

- :class:`ValueTraceRecorder` streams, per executed instruction, a
  canonicalized **digest** (blake2b over dtype / shape / bytes of every
  destination register) plus the instruction's provenance record into a
  chunked JSONL trace keyed by the program's structural fingerprint.
  Digests are a pure function of the architectural values, so two runs
  of the same program produce **byte-identical** trace files — the
  determinism gate ``tests/obs/test_vtrace.py`` pins this (no
  timestamps, hostnames, or absolute paths ever enter a trace).
- A bounded **ring buffer** retains full values for the last ``K``
  instructions of each program; it is serialized into the program's
  ``end`` record so post-hoc forensics (:mod:`repro.obs.divergence`)
  can compute abs/rel/ulp error statistics without re-execution when
  the divergence is recent enough.
- An optional ``capture_range`` records full values inline for a seq
  window — the ``--capture-window`` re-execution mode uses it to zoom
  in on a divergence point.
- Activation follows the :mod:`repro.obs.wallclock` conventions:
  **no-op by default**.  :meth:`~repro.compiler.executor.Executor.run`
  checks :func:`active` once per program, so the disabled path costs
  one module-global read per ``run()`` call
  (``tests/compiler/test_executor_overhead.py`` holds the bound).

Trace file layout (one JSON object per line, ``sort_keys`` so identical
runs are byte-identical)::

    {"kind": "trace",   "schema": "repro.obs.vtrace/1", "ring_size": K,
     "producer": {...}}                       # one header line
    {"kind": "program", "index": 0, "fingerprint": ..., ...}
    {"kind": "instr",   "seq": 0, "uid": 0, "op": ..., "srcs": [...],
     "dsts": [...], "digests": {reg: hex}, "prov": {...}, ...}
    ...
    {"kind": "end",     "index": 0, "records": N, "ring": [...]}
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Any, Dict, Optional, Tuple

import numpy as np

VTRACE_SCHEMA = "repro.obs.vtrace/1"

__all__ = [
    "VTRACE_SCHEMA", "ValueTraceRecorder",
    "digest_value", "program_fingerprint",
    "encode_value", "decode_value",
    "active", "enable", "disable", "recording_scope",
]


def digest_value(value: Any) -> str:
    """Canonical blake2b digest of one register value.

    Hashes dtype, shape, and the C-contiguous byte image, so the digest
    is independent of memory order (registers written from transposes
    are F-ordered views) while still distinguishing ``(2, 3)`` from
    ``(3, 2)`` reshapes of the same bytes.
    """
    arr = np.ascontiguousarray(value)
    h = hashlib.blake2b(digest_size=16)
    h.update(arr.dtype.str.encode())
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def program_fingerprint(program) -> str:
    """Structural fingerprint of a program: everything but numerics.

    Covers instruction uids, opcodes, register wiring, phases, and the
    register shape table — two traces are only comparable
    instruction-by-instruction when their fingerprints match.
    """
    h = hashlib.blake2b(digest_size=16)
    for instr in program.instructions:
        h.update(
            (f"{instr.uid}|{instr.op.value}|{','.join(instr.srcs)}|"
             f"{','.join(instr.dsts)}|{instr.phase}|{instr.algorithm}\n"
             ).encode()
        )
    for name in sorted(program.register_shapes):
        h.update(f"{name}:{program.register_shapes[name]}\n".encode())
    return h.hexdigest()


def encode_value(value: Any) -> Dict[str, Any]:
    """JSON-ready full image of one register value."""
    arr = np.ascontiguousarray(value)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": [float(x) for x in arr.ravel()],
    }


def decode_value(encoded: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_value`."""
    return np.array(encoded.get("data", []),
                    dtype=encoded.get("dtype", "float64")
                    ).reshape(encoded.get("shape", [-1]))


class ValueTraceRecorder:
    """Streams per-instruction value digests into a chunked JSONL file.

    Records are buffered and flushed every ``chunk_size`` lines (and at
    program boundaries), so tracing a multi-thousand-instruction
    program performs a handful of writes, not one per instruction.  One
    recorder may span several program executions; each gets its own
    ``program``/``end`` record pair and its own ring buffer.
    """

    def __init__(self, path, ring_size: int = 32, chunk_size: int = 256,
                 capture_range: Optional[Tuple[int, int]] = None,
                 producer: Optional[Dict[str, Any]] = None):
        self.path = str(path)
        self.ring_size = int(ring_size)
        self.chunk_size = max(1, int(chunk_size))
        self.capture_range = (tuple(int(x) for x in capture_range)
                              if capture_range is not None else None)
        self._ring = (deque(maxlen=self.ring_size)
                      if self.ring_size > 0 else None)
        self._buffer = []
        self._seq = 0
        self._programs = 0
        self._records = 0
        self._fh = open(self.path, "w")
        header: Dict[str, Any] = {
            "kind": "trace",
            "schema": VTRACE_SCHEMA,
            "ring_size": self.ring_size,
        }
        if self.capture_range is not None:
            header["capture_range"] = list(self.capture_range)
        if producer:
            header["producer"] = producer
        self._emit(header)
        self._flush()

    # -- low-level output ------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        self._buffer.append(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
        )
        if len(self._buffer) >= self.chunk_size:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer = []

    # -- recording (called from the executors' dispatch loop) -----------
    def begin_program(self, program) -> None:
        if self._ring is not None:
            self._ring.clear()
        self._records = 0
        self._emit({
            "kind": "program",
            "index": self._programs,
            "fingerprint": program_fingerprint(program),
            "instructions": len(program.instructions),
            "algorithm": program.algorithm,
        })

    def record_instruction(self, instr, registers: Dict[str, Any]) -> None:
        """Digest one executed instruction's destination registers.

        ``registers`` is the executor's register file *after* the
        write, exactly like the wallclock profiler's hook.
        """
        seq = self._seq
        self._seq += 1
        self._records += 1
        digests: Dict[str, Optional[str]] = {}
        for name in instr.dsts:
            value = registers.get(name)
            digests[name] = None if value is None else digest_value(value)
        record: Dict[str, Any] = {
            "kind": "instr",
            "seq": seq,
            "uid": instr.uid,
            "op": instr.op.value,
            "srcs": list(instr.srcs),
            "dsts": list(instr.dsts),
            "digests": digests,
        }
        prov = instr.provenance
        if prov is not None and not prov.is_empty():
            record["prov"] = prov.to_dict()
        if (self.capture_range is not None
                and self.capture_range[0] <= seq < self.capture_range[1]):
            record["values"] = {
                name: encode_value(registers[name])
                for name in instr.dsts if registers.get(name) is not None
            }
        self._emit(record)
        if self._ring is not None and instr.dsts:
            self._ring.append((seq, instr.uid, {
                name: np.array(registers[name], copy=True)
                for name in instr.dsts if registers.get(name) is not None
            }))

    def end_program(self) -> None:
        footer: Dict[str, Any] = {
            "kind": "end",
            "index": self._programs,
            "records": self._records,
        }
        if self._ring is not None:
            footer["ring"] = [
                {"seq": seq, "uid": uid,
                 "values": {n: encode_value(v) for n, v in values.items()}}
                for seq, uid, values in self._ring
            ]
        self._emit(footer)
        self._programs += 1
        self._flush()

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        self._flush()
        if not self._fh.closed:
            self._fh.close()


_active: Optional[ValueTraceRecorder] = None


def active() -> Optional[ValueTraceRecorder]:
    """The installed recorder, or None while tracing is off.

    This is the one check :meth:`Executor.run` performs per program;
    the per-instruction digest loop only exists while a recorder is
    active.
    """
    return _active


def enable(recorder: ValueTraceRecorder) -> ValueTraceRecorder:
    """Install (and return) the process-global value-trace recorder."""
    global _active
    _active = recorder
    return _active


def disable() -> None:
    global _active
    _active = None


class recording_scope:
    """Context manager: trace executor runs inside, restore after.

    Opens (and on exit closes) a :class:`ValueTraceRecorder` on
    ``path``; extra keyword arguments are forwarded to the recorder::

        with vtrace.recording_scope("a.trace", ring_size=64):
            Executor().run(program)
    """

    def __init__(self, path=None,
                 recorder: Optional[ValueTraceRecorder] = None, **kwargs):
        if recorder is None:
            recorder = ValueTraceRecorder(path, **kwargs)
        self._recorder = recorder
        self._previous: Optional[ValueTraceRecorder] = None

    def __enter__(self) -> ValueTraceRecorder:
        self._previous = _active
        return enable(self._recorder)

    def __exit__(self, *exc) -> bool:
        global _active
        _active = self._previous
        self._recorder.close()
        return False
