"""Additional edge-case coverage across the stack."""

import numpy as np
import pytest

from repro.gpu import A100, GpuDevice
from repro.gpu.kernels import DEFAULT_REGISTRY, Kernel, build_default_registry
from repro.oncrpc import LoopbackTransport, RpcServer
from repro.oncrpc.auth import AuthSysParams
from repro.oncrpc.client import RpcClient
from repro.rpcl import ProgramInterface, generate_module, parse
from repro.rpcl.errors import RpclSemanticError

MIB = 1 << 20


class TestCodegenCorners:
    def test_python_keyword_identifiers_are_mangled(self):
        spec = """
        const class = 5;
        struct lambda { int import; };
        program PASS {
            version IF { lambda YIELD(lambda) = 1; } = 1;
        } = 0x20001111;
        """
        source = generate_module(spec)
        namespace: dict = {}
        exec(compile(source, "kw_gen.py", "exec"), namespace)
        assert namespace["class_"] == 5
        assert "lambda_" in namespace

    def test_generated_union_with_default(self):
        spec = """
        union maybe switch (int tag) {
        case 0: void;
        default: int value;
        };
        program P { version V { maybe GET(int) = 1; } = 1; } = 0x20001112;
        """
        source = generate_module(spec)
        namespace: dict = {}
        exec(compile(source, "u_gen.py", "exec"), namespace)
        maybe = namespace["maybe"]
        assert maybe.from_bytes(maybe.to_bytes((7, 42))) == (7, 42)
        assert maybe.from_bytes(maybe.to_bytes((0, None))) == (0, None)

    def test_generated_recursive_type(self):
        spec = """
        struct cell { int head; cell *tail; };
        program P { version V { int LEN(cell) = 1; } = 1; } = 0x20001113;
        """
        source = generate_module(spec)
        namespace: dict = {}
        exec(compile(source, "rec_gen.py", "exec"), namespace)
        cell = namespace["cell"]
        value = {"head": 1, "tail": {"head": 2, "tail": None}}
        assert cell.from_bytes(cell.to_bytes(value)) == value

    def test_generated_fixed_array_field(self):
        spec = "struct vec4 { float v[4]; };"
        source = generate_module(spec)
        namespace: dict = {}
        exec(compile(source, "arr_gen.py", "exec"), namespace)
        vec4 = namespace["vec4"]
        out = vec4.from_bytes(vec4.to_bytes({"v": [1.0, 2.0, 3.0, 4.0]}))
        assert out["v"] == [1.0, 2.0, 3.0, 4.0]

    def test_generated_client_multiple_versions(self):
        spec = """
        program MULTI {
            version V1 { int PING(void) = 1; } = 1;
            version V2 { int PING(void) = 1; int PONG(void) = 2; } = 2;
        } = 0x20001114;
        """
        source = generate_module(spec)
        namespace: dict = {}
        exec(compile(source, "mv_gen.py", "exec"), namespace)
        assert "MultiV1Client" in namespace
        assert "MultiV2Client" in namespace
        assert hasattr(namespace["MultiV2Client"], "PONG")


class TestAuthPropagation:
    def test_authsys_credential_reaches_handler(self):
        spec = """
        program WHO { version V { string WHOAMI(void) = 1; } = 1; } = 0x20001120;
        """
        iface = ProgramInterface.from_source(spec, "WHO", 1)

        def WHOAMI(ctx=None):
            params = AuthSysParams.from_opaque(ctx.cred)
            return f"{params.machinename}:{params.uid}"

        server = RpcServer()
        server.register_program(
            iface.prog_number, iface.vers_number,
            iface.make_server_dispatch({"WHOAMI": WHOAMI}),
        )
        cred = AuthSysParams(machinename="hermit-vm", uid=1234).to_opaque()
        client = RpcClient(
            LoopbackTransport(server.dispatch_record),
            iface.prog_number, iface.vers_number, cred=cred,
        )
        from repro.xdr import StringType, VOID

        assert client.call_typed(1, VOID, StringType(), None) == "hermit-vm:1234"

    def test_session_dict_persists_across_calls(self):
        server = RpcServer()

        def bump(args, ctx):
            ctx.session["n"] = ctx.session.get("n", 0) + 1
            return ctx.session["n"].to_bytes(4, "big")

        server.register_program(77, 1, {1: bump})
        session: dict = {}
        client = RpcClient(
            LoopbackTransport(lambda r: server.dispatch_record(r, session=session)),
            77, 1,
        )
        assert client.call_raw(1, b"") == (1).to_bytes(4, "big")
        assert client.call_raw(1, b"") == (2).to_bytes(4, "big")


class TestKernelCostModels:
    @pytest.fixture()
    def device(self):
        return GpuDevice(A100, mem_bytes=64 * MIB)

    def test_costs_scale_with_problem_size(self, device):
        from repro.gpu.kernels import LaunchContext

        registry = build_default_registry()
        kernel = registry.get("vectorAdd")
        small = LaunchContext(device, (1, 1, 1), (256, 1, 1), 0, (0, 0, 0, 1000))
        large = LaunchContext(device, (1, 1, 1), (256, 1, 1), 0, (0, 0, 0, 100_000))
        assert kernel.cost(large).flops > kernel.cost(small).flops
        assert kernel.cost(large).bytes_moved > kernel.cost(small).bytes_moved

    def test_nop_kernel_is_free(self, device):
        from repro.gpu.kernels import LaunchContext

        kernel = device.registry.get("_Z9nopKernelv")
        ctx = LaunchContext(device, (1, 1, 1), (1, 1, 1), 0, ())
        cost = kernel.cost(ctx)
        assert cost.flops == 0 and cost.bytes_moved == 0

    def test_registry_duplicate_rejected(self):
        registry = build_default_registry()
        with pytest.raises(ValueError):
            registry.register(Kernel("vectorAdd", ("ptr",), lambda ctx: None))

    def test_registry_replace_allowed(self):
        registry = build_default_registry()
        replacement = Kernel("vectorAdd", ("ptr", "ptr", "ptr", "i32"), lambda ctx: None)
        registry.register(replacement, replace=True)
        assert registry.get("vectorAdd") is replacement

    def test_registry_clone_is_independent(self):
        registry = build_default_registry()
        clone = registry.clone()
        clone.register(Kernel("extra", (), lambda ctx: None))
        assert "extra" in clone
        assert "extra" not in registry

    def test_default_registry_not_mutated_by_devices(self):
        before = set(DEFAULT_REGISTRY.names())
        device = GpuDevice(A100, mem_bytes=MIB)
        device.registry.register(Kernel("private", (), lambda ctx: None))
        assert set(DEFAULT_REGISTRY.names()) == before

    def test_invalid_param_kind_rejected(self):
        with pytest.raises(ValueError):
            Kernel("bad", ("blob",), lambda ctx: None)


class TestRpclMisc:
    def test_proc_with_void_result_and_args(self):
        spec = "program P { version V { void NOP(void) = 1; } = 1; } = 99;"
        iface = ProgramInterface.from_source(spec, "P", 1)
        server = RpcServer()
        server.register_program(
            iface.prog_number, iface.vers_number,
            iface.make_server_dispatch({"NOP": lambda: None}),
        )
        stub = iface.bind_client(LoopbackTransport(server.dispatch_record))
        assert stub.NOP() is None

    def test_opaque_as_bare_proc_type_rejected(self):
        spec = "program P { version V { opaque GET(void) = 1; } = 1; } = 99;"
        iface_spec = parse(spec)
        from repro.rpcl.compiler import SpecCompiler

        compiler = SpecCompiler(iface_spec)
        with pytest.raises(RpclSemanticError):
            compiler.signatures("P", 1)

    def test_quadruple_unsupported(self):
        spec = "struct q { quadruple x; };"
        parsed = parse(spec)
        from repro.rpcl.compiler import SpecCompiler
        from repro.rpcl.errors import RpclError

        with pytest.raises((RpclError, KeyError, Exception)):
            compiler = SpecCompiler(parsed)
            t = compiler.types["q"]
            t.to_bytes({"x": 1.0})


class TestDeviceEdgeCases:
    def test_memcpy_zero_bytes(self):
        device = GpuDevice(A100, mem_bytes=MIB)
        ptr = device.alloc(16)
        assert device.memcpy_h2d(ptr, b"") >= 0
        data, _ = device.memcpy_d2h(ptr, 0)
        assert data == b""

    def test_snapshot_of_empty_device(self):
        device = GpuDevice(A100, mem_bytes=MIB)
        blob = device.snapshot()
        target = GpuDevice(A100, mem_bytes=MIB)
        target.restore(blob)
        assert target.allocator.used_bytes == 0

    def test_view_dtype_convenience(self):
        device = GpuDevice(A100, mem_bytes=MIB)
        from repro.gpu.kernels import LaunchContext

        ptr = device.alloc(64)
        ctx = LaunchContext(device, (1, 1, 1), (1, 1, 1), 0, ())
        view = ctx.view(ptr, 64, np.float32)
        assert view.dtype == np.float32 and view.size == 16
