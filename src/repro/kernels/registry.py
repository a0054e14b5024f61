"""Named softmax kernel registry.

One place that maps a kernel name to an executable softmax implementation,
so callers (attention layers, sweep drivers, the CLI, benchmarks) select
implementations by string instead of importing them:

* ``"reference"`` / ``"base2"`` -- floating-point references.
* ``"softermax-bit-accurate"`` -- the slice-loop :class:`SoftermaxPipeline`
  (the oracle every other Softermax kernel is validated against).
* ``"softermax-fused"`` -- the fused whole-tensor kernel, bitwise-identical
  to the oracle and the latency fast path for small row batches.
* ``"softermax-blocked"`` -- the row-blocked streaming kernel with reusable
  scratch buffers, the fast path for the bandwidth-bound huge-tensor regime.
* ``"softermax-parallel"`` -- row blocks fanned out over a worker pool via
  shared memory.
* ``"softermax-native"`` -- the compiled C row loop over the integer-code
  LUT pipeline; registered only when the extension is importable and not
  disabled (``REPRO_DISABLE_NATIVE=1``), see :mod:`repro.kernels.native`.
* ``"ibert"`` / ``"lut-exp"`` / ``"split-exp"`` -- the related-work
  approximations from :mod:`repro.core.variants`.
* ``"auto"`` -- the adaptive dispatcher (``"softermax-adaptive"``): picks
  among the bit-accurate engines per call from the tensor size, the worker
  budget and native-extension availability (see :func:`dispatch_candidates`).
  Every candidate is bitwise-identical, so the choice only affects speed.

Kernel names may carry options, e.g. ``"softermax-parallel(workers=4)"``,
``"softermax-blocked(block_rows=64)"`` or string-valued knobs like
``"softermax-blocked(lpw_method=lstsq)"``; the same options can be passed as
keyword arguments to :func:`resolve_kernel` (keywords win on conflict).

Every kernel resolves to a callable following the **workspace-aware
contract** ``fn(x, axis=-1, out=None, scratch=None) -> probabilities``:

* ``out`` -- optional float64 buffer of ``x``'s shape; the result is
  written into it in place (bitwise identical to the allocate mode) and it
  is returned.  A mismatched shape or dtype raises :class:`ValueError`.
* ``scratch`` -- optional :class:`~repro.kernels.workspace.KernelWorkspace`
  hosting the kernel's sizeable internal temporaries, reused across calls.

Kernels whose implementation writes in place natively advertise it via
``KernelSpec.supports_out`` / ``supports_scratch``; the rest (the float
references, the related-work approximations, the slice-loop oracle) are
wrapped at resolution time with copy-out semantics, so every resolved
callable accepts the full surface.  Softermax kernels are bound to a
:class:`SoftermaxConfig` at resolution time.
"""

from __future__ import annotations

import inspect
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import SoftermaxConfig, DEFAULT_CONFIG
from repro.core.softermax import SoftermaxPipeline, softermax_float
from repro.core.softmax_reference import base2_softmax, softmax_reference
from repro.core.variants import ibert_softmax, lut_exp_softmax, split_exp_softmax
from repro.kernels.blocked import get_blocked_kernel
from repro.kernels.fused import get_fused_kernel
from repro.kernels.native import get_native_kernel, native_available
from repro.kernels.parallel import get_parallel_kernel
from repro.kernels.workspace import (
    KernelWorkspace,
    check_out_buffer,
    record_output_allocation,
)

#: Name the ``"auto"`` alias resolves to.
AUTO_KERNEL = "softermax-adaptive"

#: Tensor size (rows x reduction length, in elements) at and above which the
#: adaptive dispatcher prefers the blocked streaming kernel over the fused
#: whole-tensor kernel.  Below this the fused kernel's single-dispatch
#: whole-tensor passes win; above it the fused kernel's fresh multi-megabyte
#: intermediates hit the allocation/bandwidth wall.
AUTO_BLOCKED_MIN_ELEMENTS = 1 << 19

#: Tensor size at and above which the adaptive dispatcher fans out to the
#: worker pool -- only when more than one worker is available (the pool is
#: pure overhead on a single core).
AUTO_PARALLEL_MIN_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class KernelSpec:
    """A registered softmax kernel.

    Attributes
    ----------
    name:
        Registry key.
    factory:
        ``factory(config, **options) -> fn(x, axis=-1)``; non-Softermax
        kernels ignore the config and accept no options.
    description:
        One-line human-readable summary (shown by ``repro.cli kernels``).
    bit_accurate:
        Whether the kernel models the fixed-point Softermax datapath
        bit-for-bit (as opposed to a float reference or approximation).
    selection:
        Human-readable summary of when the adaptive ``"auto"`` dispatcher
        (or a user) would pick this kernel, shown by ``repro.cli kernels``.
    runner_factory:
        Optional ``factory(config, **options) -> object`` returning a
        kernel object exposing ``run(x, axis)`` with full intermediates
        (used by the equivalence suite to pin every bit-accurate kernel to
        the oracle automatically).
    supports_out:
        Whether the factory's callable natively writes into a caller
        ``out=`` buffer without allocating its output.  Kernels without
        native support are wrapped at resolution time (compute, then copy
        into ``out``), so the *surface* is uniform; the flag reports which
        kernels are allocation-free, and the equivalence suite auto-pins
        the in-place contract for every kernel that sets it.
    supports_scratch:
        Whether the kernel houses its internal temporaries in a caller
        ``scratch=`` :class:`~repro.kernels.workspace.KernelWorkspace`.
    """

    name: str
    factory: Callable[..., Callable]
    description: str
    bit_accurate: bool = False
    selection: str = ""
    runner_factory: Optional[Callable[..., object]] = None
    supports_out: bool = False
    supports_scratch: bool = False


_KERNELS: Dict[str, KernelSpec] = {}

_NAME_RE = re.compile(r"^(?P<base>[A-Za-z0-9_.-]+)(?:\((?P<opts>[^()]*)\))?$")


_IDENTIFIER_VALUE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


def parse_kernel_name(name: str) -> Tuple[str, Dict[str, object]]:
    """Split ``"kernel(key=value, ...)"`` into ``(base, options)``.

    Option values are integers (worker and row counts) or identifier-shaped
    strings (e.g. ``lpw_method=lstsq``); anything else is a usage error.  A
    bare name parses to ``(name, {})``.
    """
    match = _NAME_RE.match(name.strip())
    if not match:
        raise ValueError(f"malformed kernel name {name!r}")
    base = match.group("base")
    options: Dict[str, object] = {}
    opts = match.group("opts")
    if opts:
        for item in opts.split(","):
            if not item.strip():
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed kernel option {item.strip()!r} in {name!r} "
                    "(expected key=value)")
            value = value.strip()
            try:
                options[key.strip()] = int(value)
            except ValueError:
                if not _IDENTIFIER_VALUE_RE.match(value):
                    raise ValueError(
                        f"kernel option {key.strip()!r} in {name!r} must be "
                        f"an integer or an identifier, got {value!r}"
                    ) from None
                options[key.strip()] = value
    return base, options


def register_kernel(spec: KernelSpec) -> None:
    """Register (or replace) a kernel by name."""
    if spec.name == "auto":
        raise ValueError('"auto" is a reserved alias, not a registrable name')
    _KERNELS[spec.name] = spec


def get_kernel(name: str) -> KernelSpec:
    """Look up a registered kernel spec.

    Resolves the ``"auto"`` alias and ignores any ``(...)`` options suffix.
    """
    base, _ = parse_kernel_name(name)
    if base == "auto":
        base = AUTO_KERNEL
    try:
        return _KERNELS[base]
    except KeyError:
        raise KeyError(
            f"unknown softmax kernel {base!r}; available: {available_kernels()}"
        ) from None


def available_kernels() -> List[str]:
    """Sorted names of all registered kernels (excluding the auto alias)."""
    return sorted(_KERNELS)


def supported_options(name: str) -> Set[str]:
    """Engine knobs a kernel's factory accepts (beyond the config).

    Lets multi-kernel drivers (``bench-kernels``, the timing sweep) apply
    shared knobs like ``workers`` only to the kernels that understand them
    instead of erroring on the rest.
    """
    params = list(inspect.signature(get_kernel(name).factory).parameters
                  .values())[1:]  # first parameter is the config
    names = set()
    for param in params:
        if param.kind == inspect.Parameter.VAR_KEYWORD:
            continue
        names.add(param.name)
    return names


def _with_out_support(fn: Callable) -> Callable:
    """Adapt a plain ``fn(x, axis)`` kernel to the workspace-aware contract.

    The wrapped kernel allocates its output on every call (and records the
    allocation); a caller ``out=`` buffer is validated against the contract
    and filled by copy, ``scratch`` is accepted and ignored.  This keeps the
    resolved surface uniform while ``KernelSpec.supports_out`` stays honest
    about which kernels are natively allocation-free.
    """

    def wrapped(x: np.ndarray, axis: int = -1,
                out: Optional[np.ndarray] = None,
                scratch: Optional[KernelWorkspace] = None) -> np.ndarray:
        result = np.asarray(fn(x, axis=axis))
        record_output_allocation()
        if out is None:
            return result
        check_out_buffer(out, result.shape)
        np.copyto(out, result)
        return out

    wrapped.__wrapped__ = fn
    return wrapped


def resolve_kernel(
    name: str = "auto",
    config: SoftermaxConfig | None = None,
    **options,
) -> Callable[..., np.ndarray]:
    """Resolve a kernel name to an ``fn(x, axis=-1, out=None, scratch=None)``
    callable (the workspace-aware contract; see the module docstring).

    Softermax kernels are bound to ``config`` (paper Table I when omitted);
    float kernels ignore it.  Engine knobs (``workers``, ``block_rows``)
    may be embedded in the name -- ``"softermax-parallel(workers=4)"`` --
    or passed as keyword arguments; keyword arguments win on conflict, and
    ``None`` values are dropped so CLI plumbing can pass unset flags
    through unconditionally.
    """
    spec = get_kernel(name)
    _, parsed = parse_kernel_name(name)
    parsed.update({k: v for k, v in options.items() if v is not None})
    if not parsed:
        fn = spec.factory(config)
    else:
        try:
            fn = spec.factory(config, **parsed)
        except TypeError as exc:
            raise TypeError(
                f"kernel {spec.name!r} does not accept options "
                f"{sorted(parsed)}: {exc}"
            ) from None
    return fn if spec.supports_out else _with_out_support(fn)


# --------------------------------------------------------------------------- #
# adaptive dispatch
# --------------------------------------------------------------------------- #
def dispatch_candidates() -> List[str]:
    """Engines the adaptive dispatcher can pick, in registration order.

    Derived from the registry itself -- a bit-accurate, workspace-aware
    engine that is not the adaptive dispatcher -- so newly registered
    backends (e.g. ``softermax-native`` when the extension is importable)
    appear in the adaptive docstring and the CLI listing automatically.
    """
    return [name for name, spec in _KERNELS.items()
            if spec.bit_accurate and spec.supports_out
            and name != AUTO_KERNEL]


@lru_cache(maxsize=None)
def host_cores() -> int:
    """The host's core count, read once per process.

    The adaptive dispatcher consults it on every softmax call, where
    ``os.cpu_count()`` costs microseconds; ``host_cores.cache_clear()``
    re-reads it (tests that pin ``os.cpu_count`` do).
    """
    return os.cpu_count() or 1


def auto_kernel_choice(rows: int, length: int,
                       workers: Optional[int] = None,
                       native: Optional[bool] = None) -> str:
    """Kernel the adaptive dispatcher picks for a ``rows x length`` call.

    ``workers`` is the worker budget (``None`` means :func:`host_cores`).
    On a single-core host the parallel engine is never picked -- even with
    an explicit multi-worker budget -- because a process pool with nowhere
    to run is pure overhead (measured 0.8x on the 1-core CI box).
    Forcing the pool remains possible by naming ``"softermax-parallel"``
    directly.

    ``native`` pins whether the compiled engine may be picked (``None``
    means "if registered").  When eligible it replaces *both* the fused
    and blocked slots: the C row loop beats the fused kernel ~6x at
    seq 512 and streams row-by-row in O(row) scratch, beating the blocked
    kernel ~2x on the huge-tensor shapes it was built for.
    """
    cores = host_cores()
    workers = cores if workers is None else int(workers)
    elements = rows * length
    if (elements >= AUTO_PARALLEL_MIN_ELEMENTS and workers > 1 and rows > 1
            and cores > 1):
        return "softermax-parallel"
    if native is None:
        native = "softermax-native" in _KERNELS
    if native:
        return "softermax-native"
    if elements >= AUTO_BLOCKED_MIN_ELEMENTS:
        return "softermax-blocked"
    return "softermax-fused"


class AdaptiveSoftermaxKernel:
    # Docstring generated from the registry after the built-in
    # registrations below (see _render_adaptive_doc).

    def __init__(self, config: SoftermaxConfig | None = None,
                 workers: Optional[int] = None,
                 block_rows: Optional[int] = None,
                 lpw_method: str = "endpoint") -> None:
        self.config = config or DEFAULT_CONFIG
        self.workers = workers
        self.block_rows = block_rows
        self.lpw_method = lpw_method
        # Child kernels by engine name, resolved once: the cached factories
        # would re-hash the config on every call.
        self._children: Dict[str, Callable] = {}

    def _kernel_for(self, name: str):
        kernel = self._children.get(name)
        if kernel is None:
            kernel = self._children[name] = self._resolve(name)
        return kernel

    def _resolve(self, name: str):
        if name == "softermax-parallel":
            return get_parallel_kernel(self.config, self.workers,
                                       self.block_rows, self.lpw_method)
        if name == "softermax-blocked":
            return get_blocked_kernel(self.config, self.block_rows,
                                      self.lpw_method)
        if name == "softermax-native":
            return get_native_kernel(self.config, self.lpw_method)
        return get_fused_kernel(self.config, self.lpw_method)

    def _choose(self, x: np.ndarray, axis: int) -> str:
        length = x.shape[axis] if x.ndim else 0
        if length == 0:
            raise ValueError("softermax requires a non-empty reduction axis")
        return auto_kernel_choice(x.size // length, length, self.workers)

    def __call__(self, x: np.ndarray, axis: int = -1,
                 out: Optional[np.ndarray] = None,
                 scratch: Optional[KernelWorkspace] = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self._kernel_for(self._choose(x, axis))(x, axis=axis, out=out,
                                                       scratch=scratch)

    def run(self, x: np.ndarray, axis: int = -1):
        x = np.asarray(x, dtype=np.float64)
        return self._kernel_for(self._choose(x, axis)).run(x, axis=axis)


# --------------------------------------------------------------------------- #
# built-in kernels
# --------------------------------------------------------------------------- #
def _softermax_pipeline_factory(config):
    pipeline = SoftermaxPipeline(config) if config is not None else SoftermaxPipeline()
    return pipeline


register_kernel(KernelSpec(
    name="reference",
    factory=lambda config: softmax_reference,
    description="float64 base-e softmax (numerically stable reference)",
))
register_kernel(KernelSpec(
    name="base2",
    factory=lambda config: base2_softmax,
    description="float64 base-2 softmax (the paper's base replacement)",
))
register_kernel(KernelSpec(
    name="softermax-float",
    factory=lambda config: softermax_float,
    description="smooth float surrogate of Softermax (fine-tuning backward)",
))
register_kernel(KernelSpec(
    name="softermax-bit-accurate",
    factory=lambda config: _softermax_pipeline_factory(config).__call__,
    description="slice-loop SoftermaxPipeline (bit-accurate hardware oracle)",
    bit_accurate=True,
    selection="never picked by auto (validation oracle)",
    runner_factory=_softermax_pipeline_factory,
))
register_kernel(KernelSpec(
    name="softermax-fused",
    factory=lambda config, lpw_method="endpoint":
        get_fused_kernel(config, lpw_method).__call__,
    description="fused whole-tensor Softermax (bitwise-identical, latency path)",
    bit_accurate=True,
    selection=f"auto: below {AUTO_BLOCKED_MIN_ELEMENTS} elements when "
              "softermax-native is unavailable",
    runner_factory=lambda config, lpw_method="endpoint":
        get_fused_kernel(config, lpw_method),
    supports_out=True,
    supports_scratch=True,
))
register_kernel(KernelSpec(
    name="softermax-blocked",
    factory=lambda config, block_rows=None, lpw_method="endpoint":
        get_blocked_kernel(config, block_rows, lpw_method).__call__,
    description="row-blocked streaming Softermax with reusable scratch "
                "(bitwise-identical, bandwidth path)",
    bit_accurate=True,
    selection=f"auto: >= {AUTO_BLOCKED_MIN_ELEMENTS} elements (single "
              "worker) when softermax-native is unavailable; block_rows=N "
              "overrides the adaptive block",
    runner_factory=lambda config, block_rows=None, lpw_method="endpoint":
        get_blocked_kernel(config, block_rows, lpw_method),
    supports_out=True,
    supports_scratch=True,
))
register_kernel(KernelSpec(
    name="softermax-parallel",
    factory=lambda config, workers=None, block_rows=None, lpw_method="endpoint":
        get_parallel_kernel(config, workers, block_rows, lpw_method).__call__,
    description="row blocks fanned out over a shared-memory worker pool "
                "(bitwise-identical, multicore path)",
    bit_accurate=True,
    selection=f"auto: >= {AUTO_PARALLEL_MIN_ELEMENTS} elements when "
              "workers > 1 and the host has > 1 core; workers=N sets the "
              "pool size (default cpu count)",
    runner_factory=lambda config, workers=None, block_rows=None,
                          lpw_method="endpoint":
        get_parallel_kernel(config, workers, block_rows, lpw_method),
    supports_out=True,
    supports_scratch=True,
))
if native_available():
    register_kernel(KernelSpec(
        name="softermax-native",
        factory=lambda config, lpw_method="endpoint":
            get_native_kernel(config, lpw_method).__call__,
        description="compiled C row loop over the integer-code LUT pipeline "
                    "(bitwise-identical, single-core fast path)",
        bit_accurate=True,
        selection="auto: preferred below the parallel threshold whenever "
                  "the extension is importable (REPRO_DISABLE_NATIVE=1 "
                  "disables it)",
        runner_factory=lambda config, lpw_method="endpoint":
            get_native_kernel(config, lpw_method),
        supports_out=True,
        supports_scratch=True,
    ))
register_kernel(KernelSpec(
    name="softermax-adaptive",
    factory=lambda config, workers=None, block_rows=None,
                   lpw_method="endpoint":
        AdaptiveSoftermaxKernel(config, workers, block_rows, lpw_method),
    # Generated from the registry, so new backends appear automatically.
    description="per-call dispatch: " + " / ".join(
        name.removeprefix("softermax-") for name in dispatch_candidates()
    ) + " by tensor size and worker budget",
    bit_accurate=True,
    selection="the auto alias; dispatches on rows x length per call",
    runner_factory=lambda config, workers=None, block_rows=None,
                          lpw_method="endpoint":
        AdaptiveSoftermaxKernel(config, workers, block_rows, lpw_method),
    supports_out=True,
    supports_scratch=True,
))
register_kernel(KernelSpec(
    name="ibert",
    factory=lambda config: ibert_softmax,
    description="I-BERT style polynomial integer softmax (related work)",
))
register_kernel(KernelSpec(
    name="lut-exp",
    factory=lambda config: lut_exp_softmax,
    description="64-entry LUT natural-exp softmax (related work)",
))
register_kernel(KernelSpec(
    name="split-exp",
    factory=lambda config: split_exp_softmax,
    description="split high/low-bit exponential softmax (related work)",
))


def _render_adaptive_doc() -> str:
    """Adaptive-dispatcher docstring, generated from the registry.

    Regenerated at import time after the built-in registrations, so the
    candidate list and per-engine selection rules can never drift from
    what the registry actually contains.
    """
    lines = [
        "Per-call size dispatch over the bit-accurate kernel family.",
        "",
        "Every candidate produces identical bits, so dispatch only affects",
        "speed.  The candidates and their selection rules come straight",
        "from the registry (see :func:`dispatch_candidates`):",
        "",
    ]
    for name in dispatch_candidates():
        lines.append(f"* ``{name}`` -- {_KERNELS[name].selection}")
    lines += [
        "",
        "The underlying kernels are memoized per config, and the worker",
        "pool is only spun up if a call actually crosses the parallel",
        "threshold.",
    ]
    return "\n".join(lines)


AdaptiveSoftermaxKernel.__doc__ = _render_adaptive_doc()
