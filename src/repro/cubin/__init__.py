"""Fat binary / cubin container format with compression.

Reproduces the cubin pipeline the paper added to Cricket: applications read
compiled GPU kernels from cubin files, ship them over RPC, and the server
extracts metadata (kernel names, parameter layout, globals) -- including
from *compressed* cubins via the from-scratch decompressor in
:mod:`repro.cubin.compression` (standing in for the authors'
``cuda-fatbin-decompression`` reverse-engineering work).
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "compression": ("compress", "decompress", "is_compressed"),
        "elf": ("CubinElf", "Section", "SHF_COMPRESSED"),
        "format": (
            "FatBinary", "FatbinEntry", "FATBIN_MAGIC", "KIND_PTX", "KIND_CUBIN", "FLAG_COMPRESSED",
        ),
        "loader": (
            "CubinImage", "build_cubin", "build_cubin_for_registry", "load_cubin", "load_fatbin",
        ),
        "metadata": (
            "CubinMetadata", "KernelMeta", "GlobalMeta", "ParamInfo", "encode_metadata",
            "decode_metadata",
        ),
        "errors": (
            "CubinError", "BadMagicError", "CorruptImageError", "DecompressionError",
            "UnknownSectionError",
        ),
    },
)
