"""Per-link standard-cell-memory (SCM) instruction memory.

The paper stresses that PELS keeps its microcode in a *private* SCM rather
than the shared SRAM: fetches never contend on the system bus (single-cycle,
predictable latency) and, for the small footprints involved (4–8 lines), an
SCM is cheaper in area and power than an SRAM macro whose sense amplifiers
would dominate [Teman et al.].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.core.isa import COMMAND_BITS, Command, decode_command, encode_command

# Decoding is a pure function of the 48-bit line and commands are immutable,
# so fetches share one memo: a looping program decodes each line once.
_decode_line = lru_cache(maxsize=4096)(decode_command)

#: Most entries :attr:`ScmMemory.quiet_runs` holds; a full table starts over.
#: Entries keyed on a captured value would otherwise grow with sensor data.
QUIET_RUN_TABLE_LIMIT = 256


class ScmTraffic:
    """Running read/write totals over a group of SCMs (all links of one PELS).

    Unlike a memory's own counts, the totals never go down:
    :meth:`ScmMemory.clear` leaves them alone, so PELS attributes new traffic
    to its activity counters by comparing one integer per direction.
    """

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0


class ScmMemory:
    """A tiny instruction memory with single-cycle read latency.

    Lines hold 48-bit encoded commands.  Reads and writes are tracked so the
    power model can attribute fetch energy to the SCM rather than the SRAM:
    ``read_count``/``write_count`` are this memory's own (reset by
    :meth:`clear`), and every access also bumps :attr:`traffic`, which PELS
    points at the one total its links share.

    :attr:`quiet_runs` is the execution unit's table of quiet runs, each a
    length and whether the run finishes the sequence
    (:meth:`~repro.core.execution.ExecutionUnit.quiet_run`), derived from
    the lines it stores.  Every write and :meth:`clear` empties it, and so
    does PELS when it re-routes an action line (which moves what counts as
    a passive action).  It is a cache: it never changes a result.
    """

    def __init__(self, lines: int) -> None:
        if lines < 1:
            raise ValueError("an SCM needs at least one line")
        self.lines = lines
        self._storage: List[int] = [0] * lines
        self.read_count = 0
        self.write_count = 0
        self.traffic = ScmTraffic()
        self.quiet_runs: Dict[Tuple, Union[Tuple[int, bool], int]] = {}

    # ------------------------------------------------------------------ access

    def read_line(self, index: int) -> int:
        """Read the encoded command at ``index`` (counts as one SCM access)."""
        self._check_index(index)
        self.read_count += 1
        self.traffic.reads += 1
        return self._storage[index]

    def fetch(self, index: int) -> Command:
        """Read and decode the command at ``index``."""
        return _decode_line(self.read_line(index))

    def peek(self, index: int) -> Command:
        """Decode the command at ``index`` without counting a read (for lookahead)."""
        return _decode_line(self._storage[index])

    def write_line(self, index: int, encoded: int) -> None:
        """Store an encoded command at ``index``."""
        self._check_index(index)
        if not 0 <= encoded < (1 << COMMAND_BITS):
            raise ValueError(f"encoded command 0x{encoded:x} does not fit in {COMMAND_BITS} bits")
        self._storage[index] = encoded
        self.quiet_runs.clear()
        self.write_count += 1
        self.traffic.writes += 1

    def store(self, index: int, command: Command) -> None:
        """Encode and store ``command`` at ``index``."""
        self.write_line(index, encode_command(command))

    def load_program(self, commands: Sequence[Command] | Iterable[Command]) -> None:
        """Load a whole program starting at line 0.

        The program must fit: this mirrors the hardware constraint that a
        link's flexibility is bounded by its SCM size, which is exactly the
        trade-off the Figure 6a area sweep explores.
        """
        command_list = list(commands)
        if len(command_list) > self.lines:
            raise ValueError(
                f"program has {len(command_list)} commands but the SCM only has {self.lines} lines"
            )
        for index, command in enumerate(command_list):
            self.store(index, command)
        for index in range(len(command_list), self.lines):
            self.write_line(index, encode_command(Command.end()))

    def dump(self) -> List[Command]:
        """Decode every line (without counting reads), for debugging and tests."""
        return [decode_command(encoded) for encoded in self._storage]

    def clear(self) -> None:
        """Zero the memory and reset its own access counts (:attr:`traffic` keeps counting)."""
        self._storage = [0] * self.lines
        self.quiet_runs.clear()
        self.read_count = 0
        self.write_count = 0

    # ----------------------------------------------------------------- helpers

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.lines:
            raise IndexError(f"SCM line {index} out of range [0, {self.lines})")

    def __len__(self) -> int:
        return self.lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScmMemory(lines={self.lines}, reads={self.read_count}, writes={self.write_count})"


def scm_bits(lines: int, optional_capture_register: bool = True) -> int:
    """Storage bits of a link's SCM (used by the area model).

    Each line stores a 48-bit command; the link additionally holds one 32-bit
    capture register next to the memory (Section III-2).
    """
    if lines < 1:
        raise ValueError("lines must be >= 1")
    bits = lines * COMMAND_BITS
    if optional_capture_register:
        bits += 32
    return bits
