"""The segment codec: move symbols, start-time markers, exact bit costs, the
packed wire form, and the path files of the command line.

Run from the repository root:  python3 demos/04_path_codec.py
"""

from mapfkit import (
    TimedPath,
    ceil_log2,
    decode_segment,
    encode_segment,
    pack_segment,
    parse_encoded,
    path_bits,
    unpack_segment,
)
from mapfkit.cli import read_paths, write_paths

# (1) A path of agent 5 starting at (0, 0) at time 2. Symbols: r/l step x,
#     u/d step y, w waits; the two leading n's carry the start time.
states = (
    (0, 0, 2), (1, 0, 3), (1, 1, 4), (1, 1, 5), (2, 1, 6), (2, 0, 7),
    (3, 0, 8), (3, 1, 9), (3, 2, 10), (3, 3, 11), (2, 3, 12),
)
path = TimedPath(5, states)
enc = encode_segment(path)
print("encoded:", enc.text())
assert decode_segment(enc) == path
assert decode_segment(parse_encoded(enc.text())) == path

# (2) Bit accounting: header (agent id + both coordinates) plus 3 bits per
#     symbol. On a 12x12 board with up to 64 agents:
bits = path_bits([path], 64, 12)
print(f"\npath bits (64 agents, side 12): {bits}")
print(f"  header {ceil_log2(64)} + {2 * ceil_log2(12)}, markers {3 * enc.start_time}, moves+end {3 * (enc.length + 1)}")

# (3) Against a raw per-move coordinate dump the symbol stream wins once the
#     board is big enough: 3 bits per move versus 2*ceil(log2 side).
for side in (8, 64, 1024):
    L = enc.length
    delta = 3 + ceil_log2(64) + 2 * ceil_log2(side)
    raw = 2 * ceil_log2(side) * L + delta
    print(f"side {side:5d}: encoded {path_bits([path], 64, side):4d} bits, raw dump {raw:4d} bits")

# (4) The packed form is the canonical wire layout: fixed-width big-endian
#     header, then 3-bit symbol codes, zero-padded to whole bytes.
wire = pack_segment(enc, 64, 12)
print(f"\npacked ({len(wire)} bytes): {wire.hex()}")
back = unpack_segment(wire, 64, 12)
assert (back.agent, back.start, back.start_time, back.moves) == (5, (0, 0), 2, enc.moves)
print("unpacked agent/start/time/moves match the original")

# (5) The command line's path files (--paths-out, validate --paths) are the
#     text form, one line per agent; a line decodes to that agent's path.
paths = {0: TimedPath(0, ((3, 1, 0), (3, 2, 1), (3, 3, 2), (4, 3, 3)))}
print("\npath-file line:", write_paths(paths), end="")
assert read_paths(write_paths(paths)) == paths
