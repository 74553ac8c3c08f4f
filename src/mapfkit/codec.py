"""Compact encoding for runs of timed states and its exact bit accounting.

A run, a whole path or one of its segments, is transmitted as a header
(agent id, start cell) followed by one ``n`` marker per unit of start time,
one symbol per move and a terminating ``e``. Move symbols step the
coordinates: ``r``/``l`` are x+1/x-1, ``u``/``d`` are y+1/y-1
(coordinate-based, not visual; the origin is top-left), and ``w`` waits.
Seven symbols fit in 3 bits each; header fields are fixed-width big-endian,
ceil(log2 n_agents) bits for the agent id and ceil(log2 map_side) bits per
coordinate. For a whole path of length L starting at t=0 this comes to
3L + delta bits with delta = 3 + ceil(log2 n_agents) + 2*ceil(log2
map_side), against 2*ceil(log2 map_side) per move for raw coordinate dumps.

Each rule is stated once: ``EncodedSegment`` checks the fields, one reader
holds the grammar both wire forms share, and one check fits the packed header.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import Coord, _integers
from .search import TimedPath

MOVE_OF_DELTA = {(1, 0): "r", (-1, 0): "l", (0, 1): "u", (0, -1): "d", (0, 0): "w"}
DELTA_OF_MOVE = {v: k for k, v in MOVE_OF_DELTA.items()}
# A symbol's 3-bit code is its index here, so a code is one octal digit.
# The unused code 7 decodes to the digit itself, which the grammar rejects.
SYMBOLS = "rludwne"
_DIGIT_OF = str.maketrans(SYMBOLS, "0123456")
_SYMBOL_OF = {digit: sym for sym, digit in _DIGIT_OF.items()}
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


def _check_header(agent: int, start: Coord, n_agents: int, map_side: int) -> None:
    """The packed header's range rule. Its fields are never negative here:
    ``EncodedSegment`` refuses that, and unpacked fields are unsigned."""
    if agent >= n_agents or max(start) >= map_side:
        raise CodecError(f"agent {agent} at {start} out of range for {(n_agents, map_side)}")


@dataclass(frozen=True)
class EncodedSegment:
    """Wire form of one segment: header fields plus the move-symbol string.
    It owns the field rule (integer agent id, start coordinates and start
    time, none negative; moves from ``rludw``), so its text parses back to it."""

    agent: int
    start: Coord
    start_time: int
    moves: str

    def __post_init__(self):
        fields = (self.agent, *self.start, self.start_time)
        if not _integers(*fields) or min(fields) < 0:
            raise CodecError(f"non-integer or negative header field: {self}")
        if self.moves.strip("rludw"):
            raise CodecError(f"invalid move symbols in {self.moves!r}")

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


def encode_segment(seg: TimedPath) -> EncodedSegment:
    """Turn the timed states of any run with ``agent`` and ``states``, a
    path or one of its segments, into header + move symbols."""
    sts = seg.states
    moves = []
    for (x0, y0, _), (x1, y1, _) in zip(sts, sts[1:]):
        moves.append(MOVE_OF_DELTA[(x1 - x0, y1 - y0)])
    return EncodedSegment(seg.agent, sts[0][:2], sts[0][2], "".join(moves))


def decode_segment(enc: EncodedSegment) -> TimedPath:
    """Reconstruct the exact timed states from an encoded segment, as the
    path they make: the wire names no partition."""
    x, y = enc.start
    t = enc.start_time
    states = [(x, y, t)]
    for sym in enc.moves:
        dx, dy = DELTA_OF_MOVE[sym]
        x, y, t = x + dx, y + dy, t + 1
        states.append((x, y, t))
    return TimedPath(enc.agent, tuple(states))


def _read_symbols(agent: int, start: Coord, symbols) -> EncodedSegment:
    """The grammar of both wire forms: ``n`` markers, then moves, then ``e``.
    Consumes ``symbols`` through the ``e``; the caller checks what follows."""
    start_time = 0
    moves = []
    for sym in symbols:
        if sym == "e":
            return EncodedSegment(agent, start, start_time, "".join(moves))
        if sym in DELTA_OF_MOVE:
            moves.append(sym)
        elif sym != "n":
            raise CodecError(f"unknown symbol {sym!r}")
        elif moves:
            raise CodecError("`n` marker after moves")
        else:
            start_time += 1
    raise CodecError("missing terminator `e`")


def parse_encoded(text: str) -> EncodedSegment:
    """Parse the spaced text form back into an encoded segment. It owns the
    text framing (three integer header tokens, nothing after ``e``) and
    raises CodecError for any stream ``EncodedSegment.text`` cannot write."""
    tokens = text.split()
    try:
        agent, x, y = map(int, tokens[:3])
    except ValueError as exc:
        raise CodecError(f"malformed header: {tokens[:3]}") from exc
    rest = iter(tokens[3:])
    enc = _read_symbols(agent, (x, y), rest)
    if next(rest, None) is not None:
        raise CodecError("trailing symbols after `e`")
    return enc


def path_bits(runs, n_agents: int, map_side: int) -> int:
    """Bits to transmit the encoded form of each run of timed states, a
    whole path or one of its segments. A run costs the fixed-width header
    and 3 bits per symbol: one ``n`` marker per unit of its absolute start
    time (which also covers gapped or late-starting segments), one per move
    and the terminator, which makes one per state."""
    header = sum(header_widths(n_agents, map_side))
    return sum(header + BITS_PER_SYMBOL * (run.start_time + len(run.states)) for run in runs)


def pack_segment(enc: EncodedSegment, n_agents: int, map_side: int) -> bytes:
    """Pack to the canonical bitstream: big-endian fixed-width header, then
    3-bit symbols, zero-padded to a byte boundary. Before padding the length
    in bits equals ``path_bits`` of the run it encodes exactly. It owns this
    layout, and raises CodecError for a header out of range."""
    _check_header(enc.agent, enc.start, n_agents, map_side)
    acc = 0
    nbits = 0
    for value, width in zip((enc.agent, *enc.start), header_widths(n_agents, map_side)):
        acc = (acc << width) | value
        nbits += width
    codes = "".join(enc.symbols()).translate(_DIGIT_OF)
    acc = (acc << BITS_PER_SYMBOL * len(codes)) | int(codes, 8)
    nbits += BITS_PER_SYMBOL * len(codes)
    pad = -nbits % 8
    acc <<= pad
    nbits += pad
    return acc.to_bytes(nbits // 8, "big")


def unpack_segment(data: bytes, n_agents: int, map_side: int) -> EncodedSegment:
    """Inverse of ``pack_segment``; raises CodecError on any stream it cannot
    write. It owns the packed framing: a whole header in range, and only zero
    padding after ``e``. Its 3-bit codes go to the grammar the text form uses."""
    bits = int.from_bytes(data, "big")
    agent_w, coord_w, _ = header_widths(n_agents, map_side)
    left = len(data) * 8 - agent_w - 2 * coord_w  # bits after the header
    if left < 0:
        raise CodecError("truncated stream")
    head, mask = bits >> left, (1 << coord_w) - 1
    agent, x, y = head >> (2 * coord_w), (head >> coord_w) & mask, head & mask
    _check_header(agent, (x, y), n_agents, map_side)
    n_codes, spare = divmod(left, BITS_PER_SYMBOL)
    codes = format((bits & ((1 << left) - 1)) >> spare, f"0{n_codes}o") if n_codes else ""
    enc = _read_symbols(agent, (x, y), codes.translate(_SYMBOL_OF))
    # the reader took one code per marker and move, and one for the `e`
    left -= BITS_PER_SYMBOL * (enc.start_time + enc.length + 1)
    if left >= 8 or bits & ((1 << left) - 1):
        raise CodecError("bits after the terminator are not its zero padding")
    return enc
