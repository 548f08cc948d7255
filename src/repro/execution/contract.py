"""Numerical execution of a contraction tree on a concrete tensor network.

Two front doors live here:

* :func:`contract_tree` compiles the tree into a
  :class:`~repro.execution.plan.CompiledPlan` (:mod:`repro.execution.plan`:
  ``tensordot`` axis pairs and leaf slicing instructions) and runs it once,
  stateless — the invariant cache it warms is the call's own.
* :class:`TreeExecutor` is the reference einsum walker: it walks the tree in
  creation order, building an einsum spec string for every pair
  contraction.  It is deliberately simple; correctness of every planning
  component in this package is ultimately checked against it (and it, in
  turn, against the dense state-vector simulator).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from ..tensornet.tensor import Tensor
from .plan import compile_plan

__all__ = ["TreeExecutor", "contract_tree"]


class TreeExecutor:
    """The reference einsum walker over a :class:`ContractionTree`.

    Parameters
    ----------
    dtype:
        Optional dtype override for the intermediate tensors (the paper's
        production runs use single-precision complex; tests use double).
    """

    def __init__(self, dtype: Optional[np.dtype] = None) -> None:
        self._dtype = np.dtype(dtype) if dtype is not None else None

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
) -> Tensor:
    """Contract ``network`` following ``tree``: compile a plan, execute it once.

    ``fixed_indices`` is one subtask's slicing assignment, as for
    :meth:`TreeExecutor.execute`; the network is not mutated.  Many
    subtasks of one tree are :class:`~repro.execution.sliced.SlicedExecutor`'s
    job, which compiles once and shares the invariant cache between them.
    """
    fixed_indices = fixed_indices or {}
    plan = compile_plan(network, tree, frozenset(fixed_indices))
    return plan.execute(network, fixed_indices)
