"""Named softmax kernel registry.

One place that maps a kernel name to an executable softmax implementation,
so callers (attention layers, sweep drivers, the CLI, benchmarks) select
implementations by string instead of importing them:

* ``"reference"`` / ``"base2"`` -- floating-point references.
* ``"softermax-bit-accurate"`` -- the slice-loop :class:`SoftermaxPipeline`
  (the oracle every other Softermax kernel is validated against).
* ``"softermax-fused"`` -- the fused whole-tensor NumPy kernel,
  bitwise-identical to the oracle (the pure-Python fast path).
* ``"softermax-native"`` -- the compiled C row loop over the integer-code
  LUT pipeline; registered only when the extension is importable and not
  disabled (``REPRO_DISABLE_NATIVE=1``), see :mod:`repro.kernels.native`.
* ``"ibert"`` / ``"lut-exp"`` / ``"split-exp"`` -- the related-work
  approximations from :mod:`repro.core.variants`.
* ``"auto"`` -- a lookup-time alias: ``"softermax-native"`` when it is
  registered, else ``"softermax-fused"`` (see :func:`auto_kernel_choice`).
  Both are bitwise-identical to the oracle, so the alias only affects speed.

Kernel names may carry options, e.g. ``"softermax-fused(lpw_method=lstsq)"``
or ``"auto(lpw_method=lstsq)"``; the same options can be passed as keyword
arguments to :func:`resolve_kernel` (keywords win on conflict).

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

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SoftermaxConfig
from repro.core.softermax import SoftermaxPipeline, softermax_float
from repro.core.softmax_reference import base2_softmax, softmax_reference
from repro.core.variants import ibert_softmax, lut_exp_softmax, split_exp_softmax
from repro.kernels.fused import get_fused_kernel
from repro.kernels.native import get_native_kernel, native_available
from repro.kernels.workspace import (
    KernelWorkspace,
    check_out_buffer,
    record_output_allocation,
)

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
    runner_factory: Optional[Callable[..., object]] = None
    supports_out: bool = False
    supports_scratch: bool = False


_KERNELS: Dict[str, KernelSpec] = {}

_NAME_RE = re.compile(r"^(?P<base>[A-Za-z0-9_.-]+)(?:\((?P<opts>[^()]*)\))?$")


_IDENTIFIER_VALUE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


def parse_kernel_name(name: str) -> Tuple[str, Dict[str, object]]:
    """Split ``"kernel(key=value, ...)"`` into ``(base, options)``.

    Option values are integers or identifier-shaped strings (e.g.
    ``lpw_method=lstsq``); anything else is a usage error.  A bare name
    parses to ``(name, {})``.
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

    Resolves the ``"auto"`` alias -- ``"softermax-native"`` when it is
    registered, else ``"softermax-fused"`` -- and ignores any ``(...)``
    options suffix.
    """
    base, _ = parse_kernel_name(name)
    if base == "auto":
        base = ("softermax-native" if "softermax-native" in _KERNELS
                else "softermax-fused")
    try:
        return _KERNELS[base]
    except KeyError:
        raise KeyError(
            f"unknown softmax kernel {base!r}; available: {available_kernels()}"
        ) from None


def available_kernels() -> List[str]:
    """Sorted names of all registered kernels (excluding the auto alias)."""
    return sorted(_KERNELS)


def auto_kernel_choice(rows: int, length: int) -> str:
    """Kernel ``"auto"`` resolves to for a ``rows x length`` call.

    The answer no longer depends on the shape: it is the alias target of
    :func:`get_kernel`.  The shape arguments are kept for per-call callers
    (tracers, regime checks).
    """
    return get_kernel("auto").name


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
    float kernels ignore it.  Options (``lpw_method``) may be embedded in
    the name -- ``"softermax-fused(lpw_method=lstsq)"`` -- or passed as
    keyword arguments; keyword arguments win on conflict, and ``None``
    values are dropped.  ``"auto"`` is resolved here, so a bad option
    fails now rather than on the first call.
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
    runner_factory=_softermax_pipeline_factory,
))
register_kernel(KernelSpec(
    name="softermax-fused",
    factory=lambda config, lpw_method="endpoint":
        get_fused_kernel(config, lpw_method).__call__,
    description="fused whole-tensor Softermax (bitwise-identical, "
                "pure-NumPy fast path)",
    bit_accurate=True,
    runner_factory=lambda config, lpw_method="endpoint":
        get_fused_kernel(config, lpw_method),
    supports_out=True,
    supports_scratch=True,
))
if native_available():
    register_kernel(KernelSpec(
        name="softermax-native",
        factory=lambda config, lpw_method="endpoint":
            get_native_kernel(config, lpw_method).__call__,
        description="compiled C row loop over the integer-code LUT pipeline "
                    "(bitwise-identical, fast path)",
        bit_accurate=True,
        runner_factory=lambda config, lpw_method="endpoint":
            get_native_kernel(config, lpw_method),
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
