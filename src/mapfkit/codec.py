"""Compact encoding for timed path segments and its exact bit accounting.

A segment is transmitted as a header (agent id, start cell) followed by one
``n`` marker per unit of start time, one symbol per move and a terminating
``e``. Move symbols step the coordinates: ``r``/``l`` are x+1/x-1, ``u``/``d``
are y+1/y-1 (coordinate-based, not visual; the origin is top-left), and ``w``
waits. Seven symbols fit in 3 bits each; header fields are fixed-width
big-endian, ceil(log2 n_agents) bits for the agent id and ceil(log2 map_side)
bits per coordinate. For a single-segment path of length L starting at t=0
this comes to 3L + delta bits with delta = 3 + ceil(log2 n_agents) +
2*ceil(log2 map_side), against 2*ceil(log2 map_side) per move for raw
coordinate dumps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conflicts import SubpathSegment
from .grid import Coord

MOVE_OF_DELTA = {(1, 0): "r", (-1, 0): "l", (0, 1): "u", (0, -1): "d", (0, 0): "w"}
DELTA_OF_MOVE = {v: k for k, v in MOVE_OF_DELTA.items()}
SYMBOL_CODES = {"r": 0, "l": 1, "u": 2, "d": 3, "w": 4, "n": 5, "e": 6}
CODE_SYMBOLS = {v: k for k, v in SYMBOL_CODES.items()}
BITS_PER_SYMBOL = 3


class CodecError(ValueError):
    """Raised for malformed encoded-segment streams."""


def ceil_log2(n: int) -> int:
    """Bits needed to index ``n`` distinct values (0 when ``n == 1``)."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


def header_widths(n_agents: int, map_side: int) -> tuple[int, int, int]:
    """Bit widths of a segment header's fields in wire order: agent id, x, y."""
    coord_w = ceil_log2(map_side)
    return ceil_log2(n_agents), coord_w, coord_w


@dataclass(frozen=True)
class EncodedSegment:
    """Wire form of one segment: header fields plus the move-symbol string."""

    agent: int
    start: Coord
    start_time: int
    moves: str

    def __post_init__(self):
        if self.start_time < 0:
            raise ValueError("start time must be nonnegative")
        bad = set(self.moves) - set(DELTA_OF_MOVE)
        if bad:
            raise ValueError(f"invalid move symbols: {sorted(bad)}")

    @property
    def length(self) -> int:
        return len(self.moves)

    def symbols(self) -> list[str]:
        """Symbol stream: start-time ``n`` markers, moves, terminator."""
        return ["n"] * self.start_time + list(self.moves) + ["e"]

    def text(self) -> str:
        """Spaced text form, e.g. ``5 0 0 n n r u w r d r u u u l e``."""
        return " ".join(
            [str(self.agent), str(self.start[0]), str(self.start[1])] + self.symbols()
        )


def encode_segment(seg: SubpathSegment) -> EncodedSegment:
    """Turn a segment's timed states into header + move symbols."""
    sts = seg.states
    moves = []
    for (x0, y0, _), (x1, y1, _) in zip(sts, sts[1:]):
        moves.append(MOVE_OF_DELTA[(x1 - x0, y1 - y0)])
    return EncodedSegment(seg.agent, sts[0][:2], sts[0][2], "".join(moves))


def decode_segment(enc: EncodedSegment) -> SubpathSegment:
    """Reconstruct the exact timed states from an encoded segment. The
    partition id is not on the wire, so the segment carries -1."""
    x, y = enc.start
    t = enc.start_time
    states = [(x, y, t)]
    for sym in enc.moves:
        dx, dy = DELTA_OF_MOVE[sym]
        x, y, t = x + dx, y + dy, t + 1
        states.append((x, y, t))
    return SubpathSegment(enc.agent, -1, tuple(states))


def parse_encoded(text: str) -> EncodedSegment:
    """Parse the spaced text form back into an encoded segment.

    Raises CodecError for short or malformed streams: a negative header field,
    missing terminator, unknown symbols, ``n`` after moves, trailing symbols.
    """
    tokens = text.split()
    if len(tokens) < 4:
        raise CodecError("stream too short")
    try:
        agent, x, y = int(tokens[0]), int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise CodecError(f"malformed header: {tokens[:3]}") from exc
    if min(agent, x, y) < 0:
        raise CodecError(f"negative header field: {tokens[:3]}")
    symbols = tokens[3:]
    i = 0
    while i < len(symbols) and symbols[i] == "n":
        i += 1
    start_time = i
    moves = []
    while i < len(symbols) and symbols[i] in DELTA_OF_MOVE:
        moves.append(symbols[i])
        i += 1
    if i >= len(symbols):
        raise CodecError("missing terminator `e`")
    if symbols[i] != "e":
        raise CodecError(f"unknown symbol {symbols[i]!r}")
    if i + 1 != len(symbols):
        raise CodecError("trailing symbols after `e`")
    return EncodedSegment(agent, (x, y), start_time, "".join(moves))


def path_bits(segments, n_agents: int, map_side: int) -> int:
    """Bits to transmit path segments. Each costs the fixed-width header,
    3 bits per ``n`` marker (one per unit of its absolute start time, which
    also covers gapped or late-starting segments), and 3 bits per move plus
    the terminator; one segment costs ``path_bits([seg], ...)``."""
    header = sum(header_widths(n_agents, map_side))
    return sum(header + BITS_PER_SYMBOL * (seg.start_time + seg.length + 1) for seg in segments)


def pack_segment(enc: EncodedSegment, n_agents: int, map_side: int) -> bytes:
    """Pack to the canonical bitstream: big-endian fixed-width header, then
    3-bit symbols, zero-padded to a byte boundary. Before padding the length
    in bits equals ``path_bits([enc], n_agents, map_side)`` exactly."""
    x, y = enc.start
    if not 0 <= enc.agent < n_agents:
        raise ValueError(f"agent id {enc.agent} out of range for {n_agents} agents")
    if not (0 <= x < map_side and 0 <= y < map_side):
        raise ValueError(f"start {enc.start} out of range for map side {map_side}")
    acc = 0
    nbits = 0
    for value, width in zip((enc.agent, x, y), header_widths(n_agents, map_side)):
        acc = (acc << width) | value
        nbits += width
    for sym in enc.symbols():
        acc = (acc << BITS_PER_SYMBOL) | SYMBOL_CODES[sym]
        nbits += BITS_PER_SYMBOL
    pad = -nbits % 8
    acc <<= pad
    nbits += pad
    return acc.to_bytes(nbits // 8, "big")


def unpack_segment(data: bytes, n_agents: int, map_side: int) -> EncodedSegment:
    """Inverse of ``pack_segment``; raises CodecError on any stream it cannot
    write: truncated, out of range, or with bits past the terminator's padding."""
    bits = int.from_bytes(data, "big")
    total = len(data) * 8
    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        if pos + width > total:
            raise CodecError("truncated stream")
        pos += width
        return (bits >> (total - pos)) & ((1 << width) - 1)

    agent, x, y = [take(width) for width in header_widths(n_agents, map_side)]
    if agent >= n_agents or max(x, y) >= map_side:
        raise CodecError(f"agent {agent} at ({x}, {y}) out of range")
    start_time = 0
    moves: list[str] = []
    while True:
        sym = CODE_SYMBOLS.get(take(BITS_PER_SYMBOL))
        if sym is None:
            raise CodecError("invalid 3-bit symbol code")
        if sym == "e":
            break
        if sym == "n":
            if moves:
                raise CodecError("`n` marker after moves")
            start_time += 1
        else:
            moves.append(sym)
    if total - pos >= 8 or bits & ((1 << (total - pos)) - 1):
        raise CodecError("bits after the terminator are not its zero padding")
    return EncodedSegment(agent, (x, y), start_time, "".join(moves))
