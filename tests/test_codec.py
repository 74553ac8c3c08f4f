import math

import numpy as np
import pytest

from mapfkit import (
    CodecError,
    EncodedSegment,
    GridMap,
    Partitioning,
    SubpathSegment,
    TimedPath,
    ceil_log2,
    decode_segment,
    encode_segment,
    pack_segment,
    parse_encoded,
    path_bits,
    split_path,
    unpack_segment,
)
from mapfkit.codec import header_widths

# the worked example: agent 5 moving on a 12x12 grid, start (0, 0) at t=2
EXAMPLE_STATES = (
    (0, 0, 2), (1, 0, 3), (1, 1, 4), (1, 1, 5), (2, 1, 6), (2, 0, 7),
    (3, 0, 8), (3, 1, 9), (3, 2, 10), (3, 3, 11), (2, 3, 12),
)
EXAMPLE_PATH = TimedPath(5, EXAMPLE_STATES)
EXAMPLE_SYMBOLS = "n n r u w r d r u u u l e".split()
# a symbol's 3-bit code is its index; the unused code 7 is written as "7"
WIRE_CODES = "rludwne7"


def random_path(rng):
    """A path of up to 8 random moves or waits from a random cell of the
    middle of a 30x30 map, starting at t = 0..4."""
    x, y, t = int(rng.integers(10, 20)), int(rng.integers(10, 20)), int(rng.integers(0, 5))
    states = [(x, y, t)]
    for _ in range(int(rng.integers(0, 9))):
        dx, dy = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)][int(rng.integers(5))]
        x, y, t = x + dx, y + dy, t + 1
        states.append((x, y, t))
    return TimedPath(int(rng.integers(64)), tuple(states))


def pack_codes(fields, codes, n_agents, map_side):
    """Pack header fields and raw 3-bit codes as pack_segment lays them out,
    with no check, so a test can put any code stream on the packed wire."""
    acc = nbits = 0
    widths = [*header_widths(n_agents, map_side), *[3] * len(codes)]
    for value, width in zip([*fields, *codes], widths):
        acc, nbits = (acc << width) | value, nbits + width
    pad = -nbits % 8
    return (acc << pad).to_bytes((nbits + pad) // 8, "big")


class TestCeilLog2:
    def test_values(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(12) == 4
        assert ceil_log2(64) == 6
        assert ceil_log2(100) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestEncodeDecode:
    def test_worked_example_stream(self):
        enc = encode_segment(EXAMPLE_PATH)
        assert enc.agent == 5
        assert enc.start == (0, 0)
        assert enc.start_time == 2
        assert enc.symbols() == EXAMPLE_SYMBOLS
        assert enc.text() == "5 0 0 n n r u w r d r u u u l e"

    def test_worked_example_roundtrip(self):
        assert decode_segment(encode_segment(EXAMPLE_PATH)) == EXAMPLE_PATH

    def test_single_state_segment(self):
        path = TimedPath(3, ((4, 4, 0),))
        enc = encode_segment(path)
        assert enc.symbols() == ["e"]
        assert decode_segment(enc) == path

    def test_zero_start_time_has_no_markers(self):
        path = TimedPath(0, ((1, 1, 0), (2, 1, 1)))
        assert encode_segment(path).symbols() == ["r", "e"]

    def test_random_roundtrips(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            path = random_path(rng)
            assert decode_segment(encode_segment(path)) == path


class TestParseEncoded:
    def test_worked_example(self):
        enc = parse_encoded("5 0 0 n n r u w r d r u u u l e")
        assert decode_segment(enc).states == EXAMPLE_STATES

    def test_zero_markers_start_at_zero(self):
        enc = parse_encoded("1 4 4 r e")
        assert enc.start_time == 0

    def test_truncated_stream(self):
        with pytest.raises(CodecError):
            parse_encoded("5 0 0 n n r u w")

    def test_unknown_symbol(self):
        with pytest.raises(CodecError):
            parse_encoded("5 0 0 n q e")

    def test_trailing_symbols(self):
        with pytest.raises(CodecError):
            parse_encoded("5 0 0 r e r")

    def test_too_short(self):
        with pytest.raises(CodecError):
            parse_encoded("5 0")

    @pytest.mark.parametrize("text", ["-1 0 0 e", "0 -3 2 r e", "0 3 -2 r e"])
    def test_negative_header_rejected(self, text):
        with pytest.raises(CodecError, match="negative header field"):
            parse_encoded(text)


class TestBitAccounting:
    def test_single_segment_from_zero(self):
        path = TimedPath(0, tuple((i, 0, i) for i in range(11)))  # length 10
        assert path_bits([path], 64, 100) == 6 + 14 + 0 + 33

    def test_worked_example_bits(self):
        # length 10, start t=2, 64 agents, map side 12
        assert path_bits([EXAMPLE_PATH], 64, 12) == 6 + 8 + 6 + 33

    def test_zero_length_segment(self):
        path = TimedPath(0, ((4, 4, 0),))
        assert path_bits([path], 64, 100) == 6 + 14 + 3

    def test_two_contiguous_segments(self):
        # lengths 4 and 6, tiling moves from t=0 (they share the boundary state)
        seg1 = SubpathSegment(0, 0, tuple((i, 0, i) for i in range(5)))
        seg2 = SubpathSegment(0, 1, tuple((4, i - 4, i) for i in range(4, 11)))
        segs = [seg1, seg2]
        assert path_bits([seg1], 64, 100) == 6 + 14 + 0 + 15
        assert path_bits([seg2], 64, 100) == 6 + 14 + 12 + 21
        assert path_bits(segs, 64, 100) == 88

    def test_marker_term_matches_cumulative_lengths_when_tiling(self):
        # for segments that tile the moves from t=0, start time == sum of
        # earlier lengths, so the two readings of the marker term agree
        rng = np.random.default_rng(3)
        for _ in range(50):
            lengths = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 5)))]
            segs = []
            t = x = 0
            for pid, ln in enumerate(lengths):
                states = tuple((x + i, 0, t + i) for i in range(ln + 1))
                segs.append(SubpathSegment(0, pid, states))
                t += ln
                x += ln
            for k in range(len(segs)):
                assert segs[k].start_time == sum(lengths[:k])

    def test_empty_path_costs_delta(self):
        path = TimedPath(0, ((0, 0, 0),))
        delta = 3 + ceil_log2(64) + 2 * ceil_log2(100)
        assert path_bits([path], 64, 100) == delta

    def test_beats_raw_encoding(self):
        # raw coordinates cost 2*ceil(log2 M) per move; symbols cost 3
        for map_side in (4, 12, 100, 1000):
            for length in (1, 5, 40):
                path = TimedPath(0, tuple((i, 0, i) for i in range(length + 1)))
                delta = 3 + ceil_log2(64) + 2 * ceil_log2(map_side)
                raw = 2 * ceil_log2(map_side) * length + delta
                assert path_bits([path], 64, map_side) < raw

    def test_path_bits_over_split_segments(self):
        grid = GridMap(12, 12)
        part = Partitioning.for_map(grid, 4)
        path = TimedPath(2, tuple((x, 3, x) for x in range(12)))  # crosses the x-cut
        segs = split_path(path, part)
        assert len(segs) == 2
        total = path_bits(segs, 64, 12)
        assert total == sum(path_bits([seg], 64, 12) for seg in segs)
        # second segment starts at t=6, so its marker term covers the lost
        # crossing move as well
        assert segs[1].start_time == 6

    def test_whole_path_prices_as_its_one_part_split(self):
        # a whole path and the one segment a one-part split makes of it
        # cost the same, and the cost fits the packed bytes
        rng = np.random.default_rng(23)
        part = Partitioning.for_map(GridMap(30, 30), 1)
        for _ in range(200):
            path = random_path(rng)
            bits = path_bits([path], 64, 30)
            assert bits == path_bits(split_path(path, part), 64, 30)
            assert math.ceil(bits / 8) == len(pack_segment(encode_segment(path), 64, 30))


class TestPackedWire:
    def test_bit_length_matches_accounting(self):
        packed = pack_segment(encode_segment(EXAMPLE_PATH), 64, 12)
        bits = path_bits([EXAMPLE_PATH], 64, 12)
        assert (bits + 7) // 8 == len(packed)

    def test_roundtrip(self):
        enc = encode_segment(EXAMPLE_PATH)
        out = unpack_segment(pack_segment(enc, 64, 12), 64, 12)
        assert out.agent == enc.agent
        assert out.start == enc.start
        assert out.start_time == enc.start_time
        assert out.moves == enc.moves

    def test_single_agent_zero_width_id(self):
        enc = EncodedSegment(0, (3, 7), 1, "rru")
        out = unpack_segment(pack_segment(enc, 1, 100), 1, 100)
        assert (out.agent, out.start, out.start_time, out.moves) == (0, (3, 7), 1, "rru")

    def test_random_roundtrips(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n_agents = int(rng.integers(1, 200))
            map_side = int(rng.integers(2, 300))
            agent = int(rng.integers(n_agents))
            x, y = int(rng.integers(map_side)), int(rng.integers(map_side))
            t = int(rng.integers(0, 6))
            moves = "".join(
                "rludw"[int(rng.integers(5))] for _ in range(int(rng.integers(0, 12)))
            )
            enc = EncodedSegment(agent, (x, y), t, moves)
            out = unpack_segment(pack_segment(enc, n_agents, map_side), n_agents, map_side)
            assert (out.agent, out.start, out.start_time, out.moves) == (agent, (x, y), t, moves)
            assert parse_encoded(enc.text()) == enc

    def test_partition_is_not_on_the_wire(self):
        # the partition id is no part of the transmitted segment, so a
        # segment decodes, directly or through the bitstream, to the path
        # its states make
        seg = SubpathSegment(5, 3, EXAMPLE_STATES)
        enc = encode_segment(seg)
        direct = decode_segment(enc)
        wired = decode_segment(unpack_segment(pack_segment(enc, 64, 12), 64, 12))
        assert direct == wired == TimedPath(5, EXAMPLE_STATES)
        assert type(direct) is TimedPath

    def test_out_of_range_rejected(self):
        # the header rule unpack_segment applies, with the codec's own error
        for enc in (
            EncodedSegment(64, (0, 0), 0, ""),
            EncodedSegment(0, (100, 0), 0, ""),
            EncodedSegment(0, (0, 100), 0, ""),
        ):
            with pytest.raises(CodecError, match="out of range"):
                pack_segment(enc, 64, 100)

    def test_out_of_range_header_not_unpacked(self):
        # 5 agents and side 5 take 3-bit fields, which can carry 5..7, but
        # pack_segment never writes those
        with pytest.raises(CodecError):
            unpack_segment(bytes([0b11111111, 0b11100000]), 5, 5)  # agent 7 at (7, 7), e
        with pytest.raises(CodecError):
            unpack_segment(bytes([0b00011100, 0b01100000]), 5, 5)  # agent 0 at (7, 0), e
        with pytest.raises(CodecError):
            unpack_segment(bytes([0b00000010, 0b11100000]), 5, 5)  # agent 0 at (0, 5), e
        assert unpack_segment(bytes([0b10010010, 0b01100000]), 5, 5) == EncodedSegment(
            4, (4, 4), 0, ""
        )

    def test_trailing_bytes_rejected(self):
        enc = EncodedSegment(3, (1, 6), 2, "ru")
        packed = pack_segment(enc, 4, 8)
        assert unpack_segment(packed, 4, 8) == enc
        for extra in (b"\xff\xff", b"\x00"):
            with pytest.raises(CodecError):
                unpack_segment(packed + extra, 4, 8)

    def test_nonzero_padding_rejected(self):
        enc = EncodedSegment(3, (1, 6), 0, "ru")
        packed = pack_segment(enc, 4, 8)
        assert path_bits([decode_segment(enc)], 4, 8) % 8 != 0  # the last byte carries padding
        with pytest.raises(CodecError):
            unpack_segment(packed[:-1] + bytes([packed[-1] | 1]), 4, 8)

    def test_truncated_rejected(self):
        enc = encode_segment(EXAMPLE_PATH)
        packed = pack_segment(enc, 64, 12)
        for cut in (0, 1, 2):  # inside the 14-bit header, then before any `e`
            with pytest.raises(CodecError):
                unpack_segment(packed[:cut], 64, 12)


class TestSegmentFields:
    @pytest.mark.parametrize(
        "fields",
        [
            (-1, (0, 0), 0, ""),
            (0, (-1, 0), 0, "r"),
            (0, (0, -2), 0, "r"),
            (0, (0, 0), -1, ""),
            (0, (0, 0), 0, "rne"),
            (0, (0, 0), 0, "R"),
            (0, (0.5, 0), 0, "r"),
            (0, (0, 0), 1.5, ""),
            # a bool would print as ``True``, which parse_encoded refuses
            (True, (0, 0), 0, "r"),
            (0, (False, 0), 0, "r"),
            (0, (0, 0), True, ""),
        ],
    )
    def test_bad_field_refused_where_built(self, fields):
        with pytest.raises(CodecError):
            EncodedSegment(*fields)

    def test_negative_start_refused_at_encode_time(self):
        with pytest.raises(CodecError, match="negative header field"):
            encode_segment(TimedPath(0, ((-1, 0, 0), (0, 0, 1))))


class TestOneGrammar:
    """The text and packed readers share one grammar: they accept the same
    symbol streams and word each fault the same way."""

    @pytest.mark.parametrize(
        "symbols, verdict",
        [
            ("r n e", "`n` marker after moves"),
            ("n w n e", "`n` marker after moves"),
            ("n n r", "missing terminator `e`"),
            ("r 7 e", "unknown symbol '7'"),
            ("", "missing terminator `e`"),
            ("n n r u e", EncodedSegment(5, (0, 0), 2, "ru")),
            ("e", EncodedSegment(5, (0, 0), 0, "")),
        ],
    )
    def test_same_verdict_from_both_readers(self, symbols, verdict):
        # agent 5 at (0, 0), with 64 agents on side 12: a 14-bit header
        text = f"5 0 0 {symbols}"
        packed = pack_codes((5, 0, 0), [WIRE_CODES.index(s) for s in symbols.split()], 64, 12)
        for read in (lambda: parse_encoded(text), lambda: unpack_segment(packed, 64, 12)):
            if isinstance(verdict, EncodedSegment):
                assert read() == verdict
                continue
            with pytest.raises(CodecError) as info:
                read()
            assert str(info.value) == verdict
