"""Numerical execution of a contraction tree on a concrete tensor network.

Two execution paths live here:

* the **reference** einsum walker (``compiled=False``) — walks the tree in
  creation order, building an einsum spec string for every pair
  contraction.  It is deliberately simple; correctness of every planning
  component in this package is ultimately checked against it (and it, in
  turn, against the dense state-vector simulator).
* the **compiled** path (the default) — delegates to
  :mod:`repro.execution.plan`, which compiles the tree once into
  ``tensordot`` axis pairs and leaf slicing instructions and reuses the
  plan across calls with the same tree and fixed-index set.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from ..tensornet.tensor import Tensor
from .backend import ExecutionBackend, validate_execution_args
from .plan import CompiledPlan, compile_plan

__all__ = ["TreeExecutor", "contract_tree"]


class TreeExecutor:
    """Executes a :class:`ContractionTree` over a concrete network.

    Parameters
    ----------
    dtype:
        Optional dtype override for the intermediate tensors (the paper's
        production runs use single-precision complex; tests use double).
    compiled:
        Use the compiled ``tensordot`` plan (default).  ``False`` selects
        the reference einsum walker that everything is cross-checked
        against.
    backend:
        Optional :class:`~repro.execution.backend.ExecutionBackend` the
        single contraction is routed through (a one-assignment subtask
        run); ``None`` executes the plan inline.  Note that one-assignment
        runs always take every backend's in-process serial path, so a
        resident pool session brings no benefit here — the parameter
        exists for API uniformity (one backend object threaded through a
        mixed pipeline); :meth:`close` releases whatever resident state
        that backend holds.  Compiled mode only.
    """

    #: Maximum number of compiled plans memoized per executor instance.
    _PLAN_MEMO_SIZE = 8

    def __init__(
        self,
        dtype: Optional[np.dtype] = None,
        compiled: bool = True,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self._dtype = np.dtype(dtype) if dtype is not None else None
        self._compiled = bool(compiled)
        validate_execution_args(
            "compiled" if self._compiled else "reference", backend=backend
        )
        self._backend = backend
        # memo keyed on object ids; the network is held through a weakref
        # with an eviction callback, so a dropped network's (potentially
        # huge) tensor data is not pinned and a recycled id cannot collide
        # with a stale entry.  The tree is pinned by the plan itself.
        self._plans: Dict[
            Tuple[int, int, frozenset],
            Tuple["weakref.ref[TensorNetwork]", CompiledPlan],
        ] = {}

    # ------------------------------------------------------------------
    def execute(
        self,
        network: TensorNetwork,
        tree: ContractionTree,
        fixed_indices: Optional[Dict[str, int]] = None,
    ) -> Tensor:
        """Contract ``network`` following ``tree``.

        Parameters
        ----------
        network:
            Concrete tensor network.  The network is not mutated.
        tree:
            Contraction tree whose ``leaf_tids`` refer to tensors of
            ``network``.
        fixed_indices:
            Mapping of index label to a fixed value — the slicing assignment
            of one subtask.  Fixed indices are removed from every tensor
            that carries them before contraction.
        """
        fixed_indices = fixed_indices or {}
        if self._compiled:
            plan = self._plan_for(network, tree, frozenset(fixed_indices))
            if self._backend is not None:
                result = self._backend.run_subtasks(plan, network, [fixed_indices])
                assert result is not None
                return result
            return plan.execute(network, fixed_indices)
        return self._execute_reference(network, tree, fixed_indices)

    def _plan_for(
        self, network: TensorNetwork, tree: ContractionTree, sliced: frozenset
    ) -> CompiledPlan:
        key = (id(network), id(tree), sliced)
        hit = self._plans.get(key)
        if hit is not None:
            network_ref, plan = hit
            # the network is mutable: drop the memoized plan if a leaf
            # tensor's axis order changed since compilation
            if network_ref() is network and plan.matches_network(network):
                return plan
            del self._plans[key]
        plan = compile_plan(network, tree, sliced, dtype=self._dtype)
        if len(self._plans) >= self._PLAN_MEMO_SIZE:
            self._plans.pop(next(iter(self._plans)))
        evict = lambda _, plans=self._plans, key=key: plans.pop(key, None)  # noqa: E731
        self._plans[key] = (weakref.ref(network, evict), plan)
        return plan

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the backend's resident session state, if any (idempotent)."""
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "TreeExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _execute_reference(
        self,
        network: TensorNetwork,
        tree: ContractionTree,
        fixed_indices: Dict[str, int],
    ) -> Tensor:
        """The seed einsum walker, kept verbatim as the reference path."""
        live: Dict[int, Tensor] = {}
        for leaf, tid in enumerate(tree.leaf_tids):
            tensor = network.tensor(tid)
            if tensor.is_abstract:
                raise ValueError(
                    f"tensor {tid} is abstract; the executor needs concrete data"
                )
            if self._dtype is not None and tensor.data is not None:
                tensor = tensor.with_data(np.asarray(tensor.data, dtype=self._dtype))
            for index, value in fixed_indices.items():
                tensor = tensor.slice_index(index, value)
            live[leaf] = tensor

        for node in tree.internal_nodes():
            a, b = tree.children(node)  # type: ignore[misc]
            ta = live.pop(a)
            tb = live.pop(b)
            out_indices = tuple(
                ix for ix in tree.node_indices(node) if ix not in fixed_indices
            )
            live[node] = _contract_pair(ta, tb, out_indices)

        return live[tree.root]

    # ------------------------------------------------------------------
    def amplitude(
        self,
        network: TensorNetwork,
        tree: ContractionTree,
        fixed_indices: Optional[Dict[str, int]] = None,
    ) -> complex:
        """Execute and return the scalar value (requires a closed network)."""
        result = self.execute(network, tree, fixed_indices)
        data = result.require_data()
        if data.size != 1:
            raise ValueError(
                f"network is not closed: result has indices {result.indices}"
            )
        return complex(data.reshape(()))


def _contract_pair(ta: Tensor, tb: Tensor, out_indices: Tuple[str, ...]) -> Tensor:
    """einsum contraction of two tensors to the requested output indices."""
    symbols: Dict[str, str] = {}

    def sym(ix: str) -> str:
        if ix not in symbols:
            symbols[ix] = _SYMBOLS[len(symbols)]
        return symbols[ix]

    spec_a = "".join(sym(ix) for ix in ta.indices)
    spec_b = "".join(sym(ix) for ix in tb.indices)
    spec_out = "".join(sym(ix) for ix in out_indices)
    data = np.einsum(
        f"{spec_a},{spec_b}->{spec_out}", ta.require_data(), tb.require_data()
    )
    sizes = {**ta.sizes(), **tb.sizes()}
    sizes = {ix: sizes[ix] for ix in out_indices}
    return Tensor(out_indices, data=data, sizes=sizes, tags=ta.tags | tb.tags)


_SYMBOLS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    + "".join(chr(c) for c in range(192, 800))
)


def contract_tree(
    network: TensorNetwork,
    tree: ContractionTree,
    fixed_indices: Optional[Dict[str, int]] = None,
    backend: Optional[ExecutionBackend] = None,
) -> Tensor:
    """One-shot helper around :class:`TreeExecutor` (compiled path).

    The single contraction is a one-assignment run, which every backend
    executes on its in-process serial path — pass a backend for API
    uniformity, not for parallelism (that lives in
    :class:`~repro.execution.sliced.SlicedExecutor`).
    """
    executor = TreeExecutor(backend=backend)
    return executor.execute(network, tree, fixed_indices)
