"""Native tape engine: the compiled step list without per-step Python.

:func:`repro.execution.plan._walk_steps` runs a plan's GEMM sequence from
Python — attribute lookups and numpy wrapper calls per step, which at
circuit-simulation tensor sizes cost a sizable fraction of each GEMM.
This module removes that layer for plans compiled with ``fused=True``:
the step list is **lowered** once, at plan-compile time, into a flat
array-of-structs :class:`TapeProgram` — an opcode table plus integer
operand/register/axis arrays — that a numba-``@njit`` kernel walks with
zero per-step Python.  The step list stays the one compiled form; the
program is derived from it and exists only for the kernel.

This is the CPU analogue of the paper's §5.3.1 *thread-level* fused
kernel (modelled analytically by
:class:`~repro.execution.fused.ThreadLevelSimulator` in
:mod:`repro.execution.fused`): where the Sunway kernel streams sub-path
steps through the 64 CPEs' LDM with reduced permutation maps resident,
the tape program streams them through a compiled loop with the same
§5.3.1 reduced core maps baked into one concatenated index table.  Every
non-identity operand permutation lowers to the recursion-formula gather
``dst[(p·C + c)·S + s] = src[(p·C + map[c])·S + s]``.  Batched (``bmm``)
steps lower to a batched-GEMM op whose leading batch axis sits in the
permutation's fixed prefix (see
:meth:`~repro.core.permutation_map.PermutationSpec.with_leading_batch`),
so the stored maps stay batch-invariant.

Engine contract
---------------
* **Import-guarded**: numba (and scipy, whose ``cython_blas`` numba's
  ``np.dot`` lowering requires) are *optional*.  Without them
  :func:`native_available` is ``False``, fused plans carry no program and
  run the Python walker.
* **Picklable**: a :class:`TapeProgram` is plain ndarrays and tuples, so
  fused plans ship to pool workers unchanged; the JIT kernel itself is
  process-local and compiles lazily on first use in each worker
  (:func:`warm_kernel` lets the pool pay that at spawn instead of on the
  first chunk).
* **Bit-identical**: the kernel performs exactly the loads, permutations
  and BLAS GEMMs of the Python walker, in the same order, on the same
  operand layouts.  :func:`interpret_program` is the pure-numpy
  executable specification of the kernel's semantics; the equivalence
  tests pin the lowering against the walker through it.
* **Self-disarming, audibly**: any kernel failure poisons the engine for
  the process (:func:`run_native` returns ``False`` forever after) and
  logs one ``WARNING`` with the exception on :data:`logger`; a fused plan
  that runs the walker instead logs one ``INFO`` with the reason
  (:func:`unavailable_reason`, or a dtype decline).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.permutation_map import PermutationSpec, ReducedPermutationMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import ContractStep, PlanStats, StemSlots

__all__ = [
    "TapeProgram",
    "interpret_program",
    "lower_steps",
    "native_available",
    "run_native",
    "unavailable_reason",
    "warm_kernel",
]

#: ``WARNING`` when the kernel disarms itself, ``INFO`` when a fused plan
#: runs the Python walker instead; silent otherwise.
logger = logging.getLogger(__name__)


#: Opcodes of the lowered program.
OP_DOT, OP_BMM = 0, 1

#: Scratch keys in the :class:`~repro.execution.plan.StemSlots` arena for
#: the kernel's permutation staging.
SCRATCH_TAPE_LHS = "tape-lhs"
SCRATCH_TAPE_RHS = "tape-rhs"

#: Dtypes numba's BLAS-backed ``np.dot`` supports; anything else runs the
#: Python walker.
_NATIVE_DTYPES = frozenset(("float32", "float64", "complex64", "complex128"))


# ----------------------------------------------------------------------
# Optional numba import + kernel definition
# ----------------------------------------------------------------------
try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
    from scipy.linalg import cython_blas as _cython_blas  # noqa: F401

    _HAVE_NUMBA = True
except Exception:  # pragma: no cover - the numba-free default environment
    _numba = None
    _HAVE_NUMBA = False

#: Set on the first kernel failure: the engine disarms itself for the
#: rest of the process and every fused execution uses the Python walker.
_BROKEN = False


def unavailable_reason() -> Optional[str]:
    """Why the native engine cannot run in this process (``None``: it can)."""
    if not _HAVE_NUMBA:
        return "no-numba"
    if _BROKEN:
        return "kernel-disarmed"
    return None


def native_available() -> bool:
    """Whether the native tape engine can run in this process."""
    return unavailable_reason() is None


if _HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @_numba.njit(cache=True, nogil=True, inline="always")
    def _gather(src, dst, prefix, core, suffix, maps, offset):  # pragma: no cover
        # the §5.3.1 recursion formula as a compiled loop:
        #   dst[(p*C + c)*S + s] = src[(p*C + map[c])*S + s]
        for p in range(prefix):
            base = p * core * suffix
            for c in range(core):
                src_off = base + maps[offset + c] * suffix
                dst_off = base + c * suffix
                for s in range(suffix):
                    dst[dst_off + s] = src[src_off + s]

    @_numba.njit(cache=True, nogil=True)
    def _walk(
        ops, dims, lhs_perm, rhs_perm, core_maps, regs, scratch_a, scratch_b
    ):  # pragma: no cover
        for i in range(ops.shape[0]):
            w = dims[i, 0]
            m = dims[i, 1]
            k = dims[i, 2]
            n = dims[i, 3]
            a = regs[ops[i, 1]]
            b = regs[ops[i, 2]]
            if lhs_perm[i, 0] == 1:
                _gather(
                    a,
                    scratch_a,
                    lhs_perm[i, 1],
                    lhs_perm[i, 2],
                    lhs_perm[i, 3],
                    core_maps,
                    lhs_perm[i, 4],
                )
                a = scratch_a
            if rhs_perm[i, 0] == 1:
                _gather(
                    b,
                    scratch_b,
                    rhs_perm[i, 1],
                    rhs_perm[i, 2],
                    rhs_perm[i, 3],
                    core_maps,
                    rhs_perm[i, 4],
                )
                b = scratch_b
            if ops[i, 0] == 0:
                a2 = a[: m * k].reshape(m, k)
                b2 = b[: k * n].reshape(k, n)
                out = np.dot(a2, b2)
                regs[ops[i, 3]] = out.reshape(m * n)
            else:
                a3 = a[: w * m * k].reshape(w, m, k)
                b3 = b[: w * k * n].reshape(w, k, n)
                out = np.empty(w * m * n, a.dtype)
                out3 = out.reshape(w, m, n)
                for bi in range(w):
                    out3[bi] = np.dot(a3[bi], b3[bi])
                regs[ops[i, 3]] = out


# ----------------------------------------------------------------------
# The lowered program
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TapeProgram:
    """A compiled step list lowered to array-of-structs form.

    All step state lives in parallel int64 tables (one row per GEMM), so
    the kernel's walk touches no Python objects:

    * ``ops[i] = (opcode, lhs_reg, rhs_reg, out_reg)`` — ``OP_DOT`` or
      ``OP_BMM`` over a flat *register file* of 1-D buffers;
    * ``dims[i] = (w, m, k, n)`` — GEMM extents (``w = 1`` for ``dot``);
    * ``lhs_perm[i]`` / ``rhs_perm[i]`` =
      ``(mode, prefix, core, suffix, map_offset)`` — ``mode 0`` passes
      the register through (identity permutation), ``mode 1`` runs the
      reduced-map gather whose core map lives at ``map_offset`` in the
      shared ``core_maps`` table;
    * ``core_maps`` — every step's §5.3.1 reduced core map, concatenated.

    ``inputs`` names the ``(node, register)`` pairs the shim loads from
    the executor's ``live`` table before the walk; ``nodes`` are the tree
    nodes the program computes (for stats parity with the Python walker);
    ``root``/``root_reg``/``root_shape`` locate and shape the result.
    ``scratch_lhs``/``scratch_rhs`` size the two staging buffers
    (elements); ``fused_steps`` counts every GEMM the kernel runs.

    Instances contain only ndarrays and tuples: they pickle to pool
    workers with the plan, and each process JIT-compiles the kernel
    lazily on first use.
    """

    ops: np.ndarray
    dims: np.ndarray
    lhs_perm: np.ndarray
    rhs_perm: np.ndarray
    core_maps: np.ndarray
    num_regs: int
    inputs: Tuple[Tuple[int, int], ...]
    nodes: Tuple[int, ...]
    root: int
    root_reg: int
    root_shape: Tuple[int, ...]
    scratch_lhs: int
    scratch_rhs: int
    fused_steps: int

    @property
    def num_steps(self) -> int:
        """Number of GEMMs in the program."""
        return int(self.ops.shape[0])


class _Lowering:
    """Builder state for one :func:`lower_steps` pass."""

    def __init__(self) -> None:
        self.rows: List[Tuple[int, int, int, int]] = []
        self.dims: List[Tuple[int, int, int, int]] = []
        self.perms: Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]] = ([], [])
        self.map_parts: List[np.ndarray] = []
        self.map_offset = 0
        self.reg_of: Dict[int, int] = {}
        self.free_regs: List[int] = []
        self.next_reg = 0
        self.inputs: List[Tuple[int, int]] = []
        self.scratch = [0, 0]

    def operand_reg(self, node: int) -> int:
        reg = self.reg_of.get(node)
        if reg is None:
            # read but never produced by the sequence: an input (leaf
            # slice or cached frontier intermediate).  Inputs are all
            # loaded before the walk starts, so their registers must be
            # fresh — a recycled register could be written by a step
            # that runs before this operand's first read, clobbering
            # the preloaded value.  Once freed (after its last read) the
            # register joins the pool for later *outputs*, which is safe.
            reg = self.next_reg
            self.next_reg += 1
            self.reg_of[node] = reg
            self.inputs.append((node, reg))
        return reg

    def stage(
        self,
        side: int,
        perm: Tuple[int, ...],
        shape: Tuple[int, ...],
        identity: bool,
        size: int,
    ) -> None:
        """Append one operand's ``(mode, P, C, S, offset)`` descriptor.

        Identity permutations pass the register through (mode 0); every
        other one becomes the §5.3.1 reduced-map gather over the
        operand's ``(prefix, core, suffix)`` view.
        """
        if identity:
            self.perms[side].append((0, 1, 1, 1, 0))
            return
        reduced = ReducedPermutationMap(PermutationSpec(perm=perm, shape=shape))
        self.perms[side].append(
            (
                1,
                reduced.prefix_size,
                reduced.core_size,
                reduced.suffix_size,
                self.map_offset,
            )
        )
        self.map_parts.append(np.asarray(reduced.core_map, dtype=np.int64))
        self.map_offset += int(reduced.core_map.size)
        self.scratch[side] = max(self.scratch[side], size)


def lower_steps(
    steps: Sequence["ContractStep"],
    root: int,
    cached: bool,
    shape_of: Mapping[int, Tuple[int, ...]],
) -> Optional[TapeProgram]:
    """Lower one compiled step list into a :class:`TapeProgram`.

    ``steps`` is a plan's full or cache-warm step list and ``cached``
    selects the matching free schedule, which drives register recycling.
    ``shape_of`` maps every node (leaves included) to the shape its
    tensor arrives in — the source shape of the operand permutations.
    Einsum steps have no GEMM form, so a list containing one cannot be
    lowered: the function returns ``None`` (as it does for an empty list)
    and the plan keeps the Python walker.
    """
    if not steps or any(step.wmkn is None for step in steps):
        return None
    state = _Lowering()
    for step in steps:
        w, m, k, n = step.wmkn
        lhs_reg = state.operand_reg(step.lhs)
        rhs_reg = state.operand_reg(step.rhs)
        state.stage(0, step.lhs_perm, shape_of[step.lhs], step.lhs_identity, w * m * k)
        state.stage(1, step.rhs_perm, shape_of[step.rhs], step.rhs_identity, w * k * n)
        if state.free_regs:
            out_reg = state.free_regs.pop()
        else:
            out_reg = state.next_reg
            state.next_reg += 1
        opcode = OP_BMM if step.kind == "bmm" else OP_DOT
        state.rows.append((opcode, lhs_reg, rhs_reg, out_reg))
        state.dims.append(step.wmkn)
        state.reg_of[step.node] = out_reg
        for child in step.free_cached if cached else step.free_full:
            state.free_regs.append(state.reg_of.pop(child))
    return TapeProgram(
        ops=np.asarray(state.rows, dtype=np.int64),
        dims=np.asarray(state.dims, dtype=np.int64),
        lhs_perm=np.asarray(state.perms[0], dtype=np.int64),
        rhs_perm=np.asarray(state.perms[1], dtype=np.int64),
        core_maps=(
            np.concatenate(state.map_parts)
            if state.map_parts
            else np.empty(0, dtype=np.int64)
        ),
        num_regs=state.next_reg,
        inputs=tuple(state.inputs),
        nodes=tuple(step.node for step in steps),
        root=root,
        root_reg=state.reg_of[root],
        root_shape=tuple(shape_of[root]),
        scratch_lhs=state.scratch[0],
        scratch_rhs=state.scratch[1],
        fused_steps=len(steps),
    )


# ----------------------------------------------------------------------
# Reference interpreter (the kernel's executable specification)
# ----------------------------------------------------------------------
def _stage_reference(
    flat: np.ndarray, descriptor: np.ndarray, core_maps: np.ndarray
) -> np.ndarray:
    mode, prefix, core, suffix = (
        int(descriptor[0]),
        int(descriptor[1]),
        int(descriptor[2]),
        int(descriptor[3]),
    )
    if mode == 0:
        return flat
    core_map = core_maps[int(descriptor[4]) : int(descriptor[4]) + core]
    source = flat[: prefix * core * suffix].reshape(prefix, core, suffix)
    return np.take(source, core_map, axis=1).reshape(-1)


def interpret_program(
    program: TapeProgram,
    inputs: Mapping[int, np.ndarray],
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """Execute a lowered program in pure numpy (the kernel's reference).

    Semantically identical, op for op, to the njit ``_walk`` kernel —
    same register file, same reduced-map gathers, same per-batch-slice
    ``np.dot`` calls — so the numba-free test environment can pin the
    lowering against the Python walker, and CI (with numba installed)
    pins the kernel against *this*.  Returns the root array, reshaped.
    """
    if dtype is None:
        dtype = np.result_type(*(inputs[node] for node, _ in program.inputs))
    regs: List[Optional[np.ndarray]] = [None] * program.num_regs
    for node, reg in program.inputs:
        regs[reg] = np.ascontiguousarray(inputs[node], dtype=dtype).reshape(-1)
    for i in range(program.num_steps):
        opcode, lhs_reg, rhs_reg, out_reg = (int(v) for v in program.ops[i])
        w, m, k, n = (int(v) for v in program.dims[i])
        a = _stage_reference(regs[lhs_reg], program.lhs_perm[i], program.core_maps)
        b = _stage_reference(regs[rhs_reg], program.rhs_perm[i], program.core_maps)
        if opcode == OP_DOT:
            out = np.dot(a[: m * k].reshape(m, k), b[: k * n].reshape(k, n))
            regs[out_reg] = out.reshape(m * n)
        else:
            a3 = a[: w * m * k].reshape(w, m, k)
            b3 = b[: w * k * n].reshape(w, k, n)
            out3 = np.empty((w, m, n), dtype=a3.dtype)
            for bi in range(w):
                out3[bi] = np.dot(a3[bi], b3[bi])
            regs[out_reg] = out3.reshape(-1)
    return regs[program.root_reg].reshape(program.root_shape)


# ----------------------------------------------------------------------
# Native execution
# ----------------------------------------------------------------------
def _mark_broken() -> None:
    """Disarm the engine; called from the failing kernel call's handler."""
    global _BROKEN
    if not _BROKEN:
        logger.warning(
            "native tape kernel failed and is disarmed for this process; "
            "fused plans run the Python walker from here on",
            exc_info=True,
        )
    _BROKEN = True


def run_native(
    program: TapeProgram,
    live: Dict[int, np.ndarray],
    slots: "StemSlots",
    stats: Optional["PlanStats"],
) -> bool:
    """Run one lowered program through the njit kernel.

    Returns ``True`` on success (``live[root]`` holds the result and the
    stats mirror the Python walker's accounting exactly); ``False`` when
    the native path cannot or should not run — numba absent, a prior
    kernel failure, mixed or unsupported operand dtypes — in which case
    ``live`` is untouched and the caller falls back to the Python
    walker.  A kernel exception disarms the engine for the process.
    """
    if _BROKEN or not _HAVE_NUMBA:
        return False
    first = live[program.inputs[0][0]]
    dtype = first.dtype
    if dtype.name not in _NATIVE_DTYPES:
        return False
    for node, _ in program.inputs:
        if live[node].dtype != dtype:
            return False  # mixed dtypes: per-step result_type applies
    try:
        from numba.typed import List as NumbaList

        placeholder = np.empty(0, dtype=dtype)
        arrays: List[np.ndarray] = [placeholder] * program.num_regs
        for node, reg in program.inputs:
            flat = np.ascontiguousarray(live[node]).reshape(-1)
            if not flat.flags.writeable:
                # the register file is a single typed list: read-only
                # views (e.g. memory-mapped leaves) would change its
                # element type, so copy them out
                flat = flat.copy()
            arrays[reg] = flat
        regs = NumbaList()
        for array in arrays:
            regs.append(array)
        scratch_a = slots.scratch(
            SCRATCH_TAPE_LHS, (max(program.scratch_lhs, 1),), dtype
        )
        scratch_b = slots.scratch(
            SCRATCH_TAPE_RHS, (max(program.scratch_rhs, 1),), dtype
        )
        start = time.perf_counter() if stats is not None else 0.0
        _walk(
            program.ops,
            program.dims,
            program.lhs_perm,
            program.rhs_perm,
            program.core_maps,
            regs,
            scratch_a,
            scratch_b,
        )
        live[program.root] = np.asarray(regs[program.root_reg]).reshape(
            program.root_shape
        )
    except Exception:
        _mark_broken()
        return False
    if stats is not None:
        stats.tape_engine = "native"
        counts = stats.node_counts
        for node in program.nodes:
            counts[node] = counts.get(node, 0) + 1
        stats.fused_steps += program.fused_steps
        stats.record_stage("fused_kernel", time.perf_counter() - start)
    return True


def warm_kernel(dtype: np.dtype = np.complex128) -> bool:
    """JIT-compile the kernel for ``dtype`` by running a 1×1 program.

    Pool workers call this at spawn (see ``execution/backend.py``) so
    the one-time numba compilation cost lands in worker start-up rather
    than the first chunk's latency.  Returns whether the kernel is
    usable; failures disarm the engine exactly like a runtime failure.
    """
    if _BROKEN or not _HAVE_NUMBA:
        return False
    try:
        from numba.typed import List as NumbaList

        dtype = np.dtype(dtype)
        regs = NumbaList()
        regs.append(np.ones(1, dtype=dtype))
        regs.append(np.ones(1, dtype=dtype))
        regs.append(np.empty(0, dtype=dtype))
        _walk(
            np.asarray([[OP_DOT, 0, 1, 2]], dtype=np.int64),
            np.asarray([[1, 1, 1, 1]], dtype=np.int64),
            np.asarray([[0, 1, 1, 1, 0]], dtype=np.int64),
            np.asarray([[0, 1, 1, 1, 0]], dtype=np.int64),
            np.empty(0, dtype=np.int64),
            regs,
            np.empty(1, dtype=dtype),
            np.empty(1, dtype=dtype),
        )
    except Exception:
        _mark_broken()
        return False
    return True
