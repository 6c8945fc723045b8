"""Runtime switches for the performance layer.

Admission has one path: exact RTA through the per-processor
:class:`repro.core.rta.RTAContext` cache, property-tested bit-identical
to the from-scratch :func:`repro.core.rta.is_schedulable` reference.
The switches below only arm checks or pick the batched-RTA backend.

``debug_invariants`` arms the runtime sanitizer
(:mod:`repro._util.invariants`): subsystem boundaries then assert RTA
response-time monotonicity, per-task ``0 < U <= 1`` and partition
well-formedness.  It starts from the ``REPRO_DEBUG_INVARIANTS``
environment variable and is toggled with :func:`use_debug_invariants`.

``kernel_backend`` names the batched-RTA backend
(:mod:`repro.core.kernel`) used when a caller batches processor checks:
``"python"`` (scalar reference), ``"numpy"`` (lockstep vectorized,
default), or ``"native"`` (compiled C, falls back to numpy when no
compiler is available).  ``kernel_batching`` routes the *existing*
serial call sites — partition validation, checked sweeps, service batch
revalidation — through the kernel; it defaults to off so the
incremental per-probe path stays the production default, and the
two paths are property-tested verdict- and counter-identical.

Each switch is a module global; flip it with its ``use_*`` context
manager rather than assigning the attribute directly, so nesting
restores the previous value.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Whether the runtime invariant sanitizer is armed (see module docstring).
debug_invariants: bool = os.environ.get(
    "REPRO_DEBUG_INVARIANTS", ""
).strip().lower() not in ("", "0", "false", "no")


def debug_invariants_enabled() -> bool:
    """Current state of the runtime-sanitizer switch."""
    return debug_invariants


@contextmanager
def use_debug_invariants(enabled: bool):
    """Temporarily arm or disarm the runtime invariant sanitizer."""
    global debug_invariants
    previous = debug_invariants
    debug_invariants = bool(enabled)
    try:
        yield
    finally:
        debug_invariants = previous


#: Names accepted by the kernel-backend switch.
KERNEL_BACKENDS = ("python", "numpy", "native")

#: Which batched-RTA backend evaluate_batch() uses (see module docstring).
kernel_backend: str = "numpy"

#: Whether existing serial call sites route through the batched kernel.
kernel_batching: bool = False


def kernel_backend_name() -> str:
    """Current state of the kernel-backend switch."""
    return kernel_backend


@contextmanager
def use_kernel_backend(backend: str):
    """Temporarily select the batched-RTA kernel backend."""
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        )
    global kernel_backend
    previous = kernel_backend
    kernel_backend = backend
    try:
        yield
    finally:
        kernel_backend = previous


def kernel_batching_enabled() -> bool:
    """Current state of the kernel-batching switch."""
    return kernel_batching


@contextmanager
def use_kernel_batching(enabled: bool):
    """Temporarily route batched call sites through the RTA kernel."""
    global kernel_batching
    previous = kernel_batching
    kernel_batching = bool(enabled)
    try:
        yield
    finally:
        kernel_batching = previous
