"""Unit and property tests for the cubin/fatbin formats and compression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cubin import (
    BadMagicError,
    CorruptImageError,
    CubinElf,
    CubinMetadata,
    DecompressionError,
    FatBinary,
    GlobalMeta,
    KernelMeta,
    build_cubin,
    build_cubin_for_registry,
    compress,
    decode_metadata,
    decompress,
    encode_metadata,
    is_compressed,
    load_cubin,
    load_fatbin,
)
from repro.gpu.kernels import build_default_registry


class TestCompression:
    def test_roundtrip_simple(self):
        data = b"hello world, hello world, hello world"
        assert decompress(compress(data)) == data

    def test_roundtrip_empty(self):
        assert decompress(compress(b"")) == b""

    def test_compresses_repetitive_data(self):
        data = b"ABCD" * 10_000
        blob = compress(data)
        assert len(blob) < len(data) // 4
        assert decompress(blob) == data

    def test_incompressible_data_roundtrips(self):
        import random

        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(5000))
        assert decompress(compress(data)) == data

    def test_overlapping_match_rle(self):
        data = b"a" * 1000  # classic distance-1 self-overlap case
        blob = compress(data)
        assert decompress(blob) == data
        assert len(blob) < 50

    def test_is_compressed(self):
        assert is_compressed(compress(b"xyz"))
        assert not is_compressed(b"xyz1234")

    def test_bad_magic(self):
        with pytest.raises(DecompressionError):
            decompress(b"\x00" * 16)

    def test_truncated_stream(self):
        blob = compress(b"some compressible data data data")
        with pytest.raises(DecompressionError):
            decompress(blob[:-2])

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=4000))
    def test_property_roundtrip(self, data):
        assert decompress(compress(data)) == data

    @settings(max_examples=20, deadline=None)
    @given(st.text(max_size=2000))
    def test_property_roundtrip_texty(self, text):
        data = (text * 3).encode("utf-8")
        assert decompress(compress(data)) == data


class TestElfContainer:
    def test_roundtrip(self):
        image = CubinElf(arch="sm_80")
        image.add_section(".nv.info", b"metadata")
        image.add_section(".text.k", b"code", flags=0)
        parsed = CubinElf.from_bytes(image.to_bytes())
        assert parsed.arch == "sm_80"
        assert parsed.section(".nv.info").data == b"metadata"
        assert parsed.section(".text.k").data == b"code"

    def test_duplicate_section_rejected(self):
        image = CubinElf()
        image.add_section("a", b"")
        with pytest.raises(CorruptImageError):
            image.add_section("a", b"")

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            CubinElf.from_bytes(b"\x00" * 32)

    def test_truncated_payload(self):
        blob = bytearray(CubinElf(arch="sm_80").to_bytes())
        image = CubinElf(arch="sm_80")
        image.add_section("s", b"0123456789")
        blob = image.to_bytes()[:-4]
        with pytest.raises(CorruptImageError):
            CubinElf.from_bytes(blob)

    def test_trailing_garbage(self):
        blob = CubinElf(arch="sm_80").to_bytes() + b"JUNK"
        with pytest.raises(CorruptImageError):
            CubinElf.from_bytes(blob)

    def test_sections_with_prefix(self):
        image = CubinElf()
        image.add_section(".text.a", b"")
        image.add_section(".text.b", b"")
        image.add_section(".nv.info", b"")
        assert len(image.sections_with_prefix(".text.")) == 2


class TestMetadata:
    def test_roundtrip(self):
        meta = CubinMetadata(
            kernels=[
                KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32")),
                KernelMeta.from_kinds("nop", ()),
            ],
            globals=[GlobalMeta("lut", 16, bytes(range(16)))],
        )
        decoded = decode_metadata(encode_metadata(meta))
        assert decoded.kernel("vectorAdd").param_kinds == ("ptr", "ptr", "ptr", "i32")
        assert decoded.global_("lut").init == bytes(range(16))

    def test_param_offsets_natural_alignment(self):
        meta = KernelMeta.from_kinds("k", ("i32", "ptr", "f32", "f64"))
        offsets = [p.offset for p in meta.params]
        assert offsets == [0, 8, 16, 24]
        assert meta.param_block_size == 32

    def test_global_init_size_mismatch(self):
        with pytest.raises(ValueError):
            GlobalMeta("g", 8, b"abc")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelMeta.from_kinds("k", ("blob",))

    def test_corrupt_metadata_section(self):
        with pytest.raises(CorruptImageError):
            decode_metadata(b"\x01\x02\x03")

    def test_missing_kernel_lookup(self):
        meta = CubinMetadata()
        with pytest.raises(KeyError):
            meta.kernel("nope")


class TestLoader:
    def test_build_and_load(self):
        blob = build_cubin([KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))])
        image = load_cubin(blob)
        assert image.arch == "sm_80"
        assert image.kernel_names() == ("vectorAdd",)

    def test_compressed_text_sections(self):
        blob = build_cubin(
            [KernelMeta.from_kinds("saxpy", ("ptr", "ptr", "f32", "i32"))],
            compress_text=True,
        )
        image = load_cubin(blob)
        assert image.kernel_names() == ("saxpy",)

    def test_whole_image_compression(self):
        blob = build_cubin([KernelMeta.from_kinds("nop", ())])
        image = load_cubin(compress(blob))
        assert image.kernel_names() == ("nop",)

    def test_registry_driven_build(self):
        registry = build_default_registry()
        blob = build_cubin_for_registry(registry, ["vectorAdd", "histogram256Kernel"])
        image = load_cubin(blob)
        assert set(image.kernel_names()) == {"vectorAdd", "histogram256Kernel"}
        meta = image.metadata.kernel("vectorAdd")
        assert meta.param_kinds == registry.get("vectorAdd").param_kinds

    def test_globals_in_image(self):
        blob = build_cubin(
            [KernelMeta.from_kinds("nop", ())],
            globals_=[GlobalMeta("coeffs", 8, b"\x01" * 8)],
        )
        image = load_cubin(blob)
        assert image.global_names() == ("coeffs",)

    def test_missing_nv_info(self):
        raw = CubinElf(arch="sm_80")
        raw.add_section(".text.k", b"SASS:k")
        with pytest.raises(CorruptImageError):
            load_cubin(raw.to_bytes())

    def test_missing_text_section(self):
        raw = CubinElf(arch="sm_80")
        meta = CubinMetadata(kernels=[KernelMeta.from_kinds("ghost", ())])
        raw.add_section(".nv.info", encode_metadata(meta))
        with pytest.raises(CorruptImageError):
            load_cubin(raw.to_bytes())


class TestFatBinary:
    def test_roundtrip_multiple_arches(self):
        fb = FatBinary()
        cubin80 = build_cubin([KernelMeta.from_kinds("nop", ())], arch="sm_80")
        cubin70 = build_cubin([KernelMeta.from_kinds("nop", ())], arch="sm_70")
        fb.add_cubin("sm_80", cubin80)
        fb.add_cubin("sm_70", cubin70)
        fb.add_ptx("sm_80", ".version 7.0\n.target sm_80")
        parsed = FatBinary.from_bytes(fb.to_bytes())
        assert len(parsed.entries) == 3
        assert parsed.best_cubin("sm_80").arch == "sm_80"

    def test_best_cubin_falls_back_to_older_arch(self):
        fb = FatBinary()
        fb.add_cubin("sm_70", build_cubin([KernelMeta.from_kinds("nop", ())], arch="sm_70"))
        assert fb.best_cubin("sm_80").arch == "sm_70"

    def test_best_cubin_rejects_newer_only(self):
        fb = FatBinary()
        fb.add_cubin("sm_90", b"anything")
        with pytest.raises(CorruptImageError):
            fb.best_cubin("sm_80")

    def test_no_cubin_entries(self):
        fb = FatBinary()
        fb.add_ptx("sm_80", "ptx only")
        with pytest.raises(CorruptImageError):
            fb.best_cubin("sm_80")

    def test_compressed_entry_loads(self):
        fb = FatBinary()
        cubin = build_cubin([KernelMeta.from_kinds("vectorAdd", ("ptr", "ptr", "ptr", "i32"))])
        entry = fb.add_cubin("sm_80", cubin, compress=True)
        assert entry.compressed
        assert len(entry.payload) < len(cubin)
        image = load_fatbin(fb.to_bytes(), arch="sm_80")
        assert image.kernel_names() == ("vectorAdd",)

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            FatBinary.from_bytes(b"\x00" * 16)

    def test_truncated_entry(self):
        fb = FatBinary()
        fb.add_cubin("sm_80", b"payload-bytes")
        with pytest.raises(CorruptImageError):
            FatBinary.from_bytes(fb.to_bytes()[:-3])
