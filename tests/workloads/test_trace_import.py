"""Compressed-trace importer: sniffing, readers, round trips.

Formats are identified by content (magic bytes), never extension; every
import path ends at the canonical ``.npz`` archive and a re-load replays
the identical addresses, write masks and block structure.
"""

from __future__ import annotations

import gzip
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.sim.blocks import ReferenceBlock
from repro.sim.trace_io import load_trace, save_trace
from repro.workloads.trace import (
    derive_layout,
    import_trace,
    load_any_trace,
    read_text_trace,
    sniff_trace_format,
)

TEXT = "# captured externally\nR 0x1000\nW 0x1040  # store\nr 4224\nW 0x20000\n\n"
ADDRS = [0x1000, 0x1040, 4224, 0x20000]
WRITES = [False, True, False, True]


@pytest.fixture
def text_trace(tmp_path):
    path = tmp_path / "capture.trace"
    path.write_text(TEXT)
    return path


@pytest.fixture
def gz_text_trace(tmp_path):
    path = tmp_path / "capture.trace.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(TEXT)
    return path


@pytest.fixture
def npz_trace(tmp_path, text_trace):
    path = tmp_path / "canon.npz"
    save_trace(path, read_text_trace(text_trace))
    return path


class TestSniffing:
    def test_by_content_not_extension(
        self, tmp_path, text_trace, gz_text_trace, npz_trace
    ):
        assert sniff_trace_format(text_trace) == "text"
        assert sniff_trace_format(gz_text_trace) == "text.gz"
        assert sniff_trace_format(npz_trace) == "npz"
        # A gzip'd archive keeps its identity under a misleading name.
        disguised = tmp_path / "totally_a_text_file.trace"
        disguised.write_bytes(gzip.compress(npz_trace.read_bytes()))
        assert sniff_trace_format(disguised) == "npz.gz"

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            sniff_trace_format(tmp_path / "nope")


class TestTextReader:
    def test_parses_addresses_comments_and_writes(self, text_trace):
        blocks = read_text_trace(text_trace)
        assert len(blocks) == 1
        assert blocks[0].addrs.tolist() == ADDRS
        assert blocks[0].writes.tolist() == WRITES

    def test_read_only_traces_have_no_mask(self):
        blocks = read_text_trace(io.StringIO("R 0x40\nR 0x80\n"))
        assert blocks[0].writes is None

    def test_chunks_long_streams(self):
        text = "\n".join(f"R {i * 64}" for i in range(300))
        blocks = read_text_trace(io.StringIO(text), block_refs=128)
        assert [len(b.addrs) for b in blocks] == [128, 128, 44]
        joined = np.concatenate([b.addrs for b in blocks])
        assert joined.tolist() == [i * 64 for i in range(300)]

    @pytest.mark.parametrize(
        ("line", "match"),
        [
            ("X 0x40", "expected"),
            ("R", "expected"),
            ("R 0x40 0x80", "expected"),
            ("R zebra", "bad address"),
            ("# nothing else", "no references"),
            ("R -0x40", "negative address"),
            (f"W {1 << 64:#x}", "64 bits"),
        ],
    )
    def test_rejects_malformed_lines(self, line, match):
        with pytest.raises(TraceError, match=match):
            read_text_trace(io.StringIO(line + "\n"))


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["text", "text.gz", "npz", "npz.gz"])
    def test_import_any_format_is_exact(
        self, fmt, tmp_path, text_trace, gz_text_trace, npz_trace
    ):
        source = {
            "text": text_trace,
            "text.gz": gz_text_trace,
            "npz": npz_trace,
        }.get(fmt)
        if source is None:
            source = tmp_path / "canon.npz.gz"
            source.write_bytes(gzip.compress(npz_trace.read_bytes()))
        expected = load_any_trace(source)
        out = import_trace(source, tmp_path / f"out-{fmt.replace('.', '_')}")
        assert out.suffix == ".npz" and out.exists()
        replayed = load_trace(out)
        assert len(replayed) == len(expected)
        for a, b in zip(replayed, expected):
            assert np.array_equal(a.addrs, b.addrs)
            assert (a.writes is None) == (b.writes is None)
            if a.writes is not None:
                assert np.array_equal(a.writes, b.writes)
            assert a.label == b.label
            assert a.cycles_per_ref == b.cycles_per_ref


class TestDeriveLayout:
    def test_clusters_by_address_gap(self):
        blocks = [
            ReferenceBlock(
                addrs=np.array(
                    [0x1000, 0x1040, 0x1080, 0x200000, 0x200040],
                    dtype=np.uint64,
                ),
                cycles_per_ref=1.0,
            )
        ]
        layout = derive_layout(blocks)
        assert layout == {"t0": (0x1000, 192), "t1": (0x200000, 128)}

    def test_keeps_the_largest_clusters(self):
        lines = [i * 64 for i in range(10)] + [0x900000]
        blocks = [
            ReferenceBlock(
                addrs=np.array(lines, dtype=np.uint64), cycles_per_ref=1.0
            )
        ]
        assert list(derive_layout(blocks, max_objects=1)) == ["t0"]
        assert derive_layout(blocks, max_objects=1)["t0"] == (0, 640)


# ------------------------------------------------------------ fuzzing

#: Addresses a capture may hold, including ones no trace may import.
FUZZ_ADDRS = st.one_of(
    st.integers(0, (1 << 64) - 1),
    st.integers(1 << 64, 1 << 70),
    st.integers(-(1 << 64), -1),
)


def _trace_bytes(fmt: str, refs: list[tuple[bool, int]]) -> bytes:
    """A trace of ``refs`` (write flag, address) in format ``fmt``. Text
    formats write every address as given; archives keep the in-range
    ones (an archive cannot hold another address)."""
    if fmt.startswith("text"):
        body = "".join(f"{'W' if w else 'R'} {a:#x}\n" for w, a in refs)
        data = body.encode("utf-8")
    else:
        kept = [(w, a) for w, a in refs if 0 <= a < 1 << 64]
        blocks = [
            ReferenceBlock(
                addrs=np.array([a for _, a in kept], dtype=np.uint64),
                writes=np.array([w for w, _ in kept], dtype=bool),
            )
        ] if kept else []
        with tempfile.TemporaryDirectory() as tmp:
            save_trace(Path(tmp) / "t.npz", blocks)
            data = (Path(tmp) / "t.npz").read_bytes()
    return gzip.compress(data, mtime=0) if fmt.endswith(".gz") else data


@st.composite
def damaged_traces(draw):
    fmt = draw(st.sampled_from(["text", "text.gz", "npz", "npz.gz"]))
    refs = draw(st.lists(st.tuples(st.booleans(), FUZZ_ADDRS), max_size=40))
    data = bytearray(_trace_bytes(fmt, refs))
    damage = draw(st.sampled_from(["none", "truncate", "flip"]))
    if damage == "truncate" and data:
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif damage == "flip" and data:
        for _ in range(draw(st.integers(1, 4))):
            pos = draw(st.integers(0, len(data) - 1))
            data[pos] ^= draw(st.integers(1, 255))
    return bytes(data)


class TestFuzzedImports:
    """Whatever the bytes, a load either succeeds or raises
    :class:`TraceError`, and a failed import writes nothing."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(damaged_traces())
    def test_only_trace_errors_escape(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp) / "capture"
            source.write_bytes(data)
            dest = Path(tmp) / "out.npz"
            try:
                blocks = load_any_trace(source)
            except TraceError as exc:
                assert "capture" in str(exc)
                with pytest.raises(TraceError):
                    import_trace(source, dest)
                assert not dest.exists()
                return
            assert sum(len(b) for b in blocks) > 0
            replayed = load_trace(import_trace(source, dest))
            assert [b.addrs.tolist() for b in replayed] == [
                b.addrs.tolist() for b in blocks
            ]

    @pytest.mark.parametrize("fmt", ["text", "text.gz", "npz", "npz.gz"])
    def test_empty_trace_is_refused(self, fmt, tmp_path):
        source = tmp_path / "capture"
        source.write_bytes(_trace_bytes(fmt, []))
        with pytest.raises(TraceError, match="no references"):
            import_trace(source, tmp_path / "out")
        assert not (tmp_path / "out.npz").exists()

    @pytest.mark.parametrize(
        ("data", "match"),
        [
            (
                gzip.compress(TEXT.encode(), mtime=0)[:-12],
                r"capture: unreadable after line \d",
            ),
            (b"R 0x40\nR \xff\xfe\n", r"capture:2: not UTF-8"),
            (b"R 0x40\nW 0x1ffffffffffffffff\n", r"capture:2: .*64 bits"),
        ],
        ids=["truncated-gzip-text", "non-utf8", "address-past-64-bits"],
    )
    def test_text_errors_name_the_line(self, data, match, tmp_path):
        source = tmp_path / "capture"
        source.write_bytes(data)
        with pytest.raises(TraceError, match=match):
            load_any_trace(source)

    @pytest.mark.parametrize("cut", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("gz", [False, True], ids=["npz", "npz.gz"])
    def test_truncated_archive_names_the_file(self, cut, gz, tmp_path, npz_trace):
        data = npz_trace.read_bytes()
        if gz:
            data = gzip.compress(data, mtime=0)
        source = tmp_path / "capture"
        source.write_bytes(data[: int(len(data) * cut)])
        with pytest.raises(TraceError, match="capture"):
            load_any_trace(source)

    def test_corrupt_gzip_body(self, tmp_path):
        data = bytearray(gzip.compress(TEXT.encode() * 50, mtime=0))
        data[len(data) // 2] ^= 0xFF
        source = tmp_path / "capture"
        source.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="capture"):
            load_any_trace(source)
