"""Correlated-sample generation and cross-entropy benchmarking utilities.

The paper's headline workload is not a single amplitude but "1 M correlated
samples": a batch of bitstrings that agree on most qubits and differ on a
small *open* subset, obtained by leaving those qubits' output indices
uncontracted so that one tensor-network contraction yields ``2^k`` amplitudes
at once.  The frequentist sampling of the 2021 Gordon Bell work (and of the
Sycamore experiment's verification) then draws bitstrings from this batch
and estimates the linear cross-entropy benchmarking (XEB) fidelity.

This module implements that workflow on top of the planning/execution stack:

* :class:`CorrelatedSampleBatch` — the result of contracting a network with
  ``k`` open output qubits: a ``2^k`` amplitude tensor over the open qubits
  with the remaining qubits fixed to a base bitstring;
* :class:`CorrelatedSampler` — plans such a batch once per network
  *structure* and executes it per base bitstring by rebinding leaf data
  into a resident compiled plan (numerically for laptop-scale circuits,
  abstractly for planning-only studies);
* :func:`linear_xeb_fidelity` — the standard XEB estimator
  ``F = 2^n <p(x)> - 1``.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Circuit
from ..paths.optimizer import HyperOptimizer
from ..tensornet.circuit_to_tn import CircuitToTensorNetwork
from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork
from ..tensornet.simplify import simplify_network
from .backend import (
    ExecutionBackend,
    NullExecutionSession,
    validate_execution_args,
)
from .contract import TreeExecutor
from .plan import PlanStats
from .sliced import SlicedExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faultinject import FaultInjector
    from .resilience import FaultPolicy

__all__ = ["CorrelatedSampleBatch", "CorrelatedSampler", "linear_xeb_fidelity"]

_LOG = logging.getLogger(__name__)


@dataclass
class CorrelatedSampleBatch:
    """A batch of correlated amplitudes.

    Attributes
    ----------
    base_bitstring:
        The bit values of the *closed* qubits (entries for open qubits are
        placeholders and ignored).
    open_qubits:
        The qubits whose output indices were left uncontracted, in the axis
        order of ``amplitudes``.
    amplitudes:
        Complex array of shape ``(2,) * len(open_qubits)``; entry
        ``amplitudes[b1, ..., bk]`` is the amplitude of the bitstring that
        agrees with ``base_bitstring`` everywhere except on the open qubits,
        which take the values ``b1 ... bk``.
    """

    base_bitstring: Tuple[int, ...]
    open_qubits: Tuple[int, ...]
    amplitudes: np.ndarray

    @property
    def num_open_qubits(self) -> int:
        """Number of open (varying) qubits."""
        return len(self.open_qubits)

    @property
    def num_samples(self) -> int:
        """Number of correlated amplitudes in the batch (2^k)."""
        return int(self.amplitudes.size)

    def bitstrings(self) -> np.ndarray:
        """All bitstrings covered by the batch, shape ``(2^k, num_qubits)``."""
        n = len(self.base_bitstring)
        out = np.tile(np.asarray(self.base_bitstring, dtype=np.int8), (self.num_samples, 1))
        for row, values in enumerate(np.ndindex(*self.amplitudes.shape)):
            for qubit, bit in zip(self.open_qubits, values):
                out[row, qubit] = bit
        return out

    def probabilities(self) -> np.ndarray:
        """Probability of each covered bitstring, shape ``(2^k,)``."""
        flat = self.amplitudes.reshape(-1)
        return (flat.real**2 + flat.imag**2).astype(np.float64)

    def amplitude_of(self, bitstring: Sequence[int]) -> complex:
        """Amplitude of a full bitstring covered by this batch."""
        if len(bitstring) != len(self.base_bitstring):
            raise ValueError("bitstring length mismatch")
        for qubit, bit in enumerate(bitstring):
            if qubit in self.open_qubits:
                continue
            if int(bit) != self.base_bitstring[qubit]:
                raise ValueError(
                    f"bitstring differs from the batch's base on closed qubit {qubit}"
                )
        index = tuple(int(bitstring[q]) for q in self.open_qubits)
        return complex(self.amplitudes[index])

    def sample(self, num_samples: int, seed: Optional[int] = None) -> np.ndarray:
        """Draw bitstrings from the batch's (renormalised) distribution."""
        rng = np.random.default_rng(seed)
        probs = self.probabilities()
        total = probs.sum()
        if total <= 0:
            raise ValueError("batch has zero total probability")
        picks = rng.choice(probs.size, size=num_samples, p=probs / total)
        return self.bitstrings()[picks]


@dataclass
class _ResidentPlan:
    """Everything planned and compiled for one network structure.

    ``network`` is the resident network the executors were compiled
    against; each batch rebinds its leaves (``replace_tensor``) instead of
    compiling a new plan.
    """

    key: Tuple
    digest: str
    tree: ContractionTree
    network: Optional[TensorNetwork] = None
    derived_slicing: Optional[FrozenSet[str]] = None
    executors: Dict[FrozenSet[str], SlicedExecutor] = field(default_factory=dict)


class CorrelatedSampler:
    """Plans and executes correlated-amplitude batches for a circuit.

    The simplified network of every base bitstring has the same structure
    (tensor ids, index names, axis orders, shapes); only the data of the
    few leaves that absorbed an output ket differs.  The sampler therefore
    searches for a contraction tree, derives a slicing set and compiles a
    :class:`SlicedExecutor` **once** per structure
    (:meth:`TensorNetwork.structure_key`) and, per batch, only swaps the
    leaf data into the resident network — the paper's protocol of one path
    and one slicing set reused for every batch.  Results are bitwise what a
    fresh sampler (same ``seed``) returns for each bitstring.

    Parameters
    ----------
    circuit:
        The circuit to sample from.
    open_qubits:
        Qubits whose output indices stay open (the "correlated" directions).
        The paper's production runs open 20 qubits to produce 1 M correlated
        samples per contraction; laptop-scale runs should open at most ~16.
    target_rank:
        Memory target for process-level slicing.
    max_trials, seed:
        Path-search configuration.  The search runs once per network
        structure, so with ``seed=None`` the sampler keeps the first tree
        it draws for all later batches instead of drawing a new one per
        batch; a pinned ``seed`` gives the tree a fresh sampler would find.
    executor_mode:
        ``"compiled"`` (default) contracts batches through the compiled
        plan with slice-invariant caching; ``"reference"`` uses the einsum
        walker (useful for cross-checking).
    backend:
        Optional :class:`~repro.execution.backend.ExecutionBackend` for
        batch execution (sliced runs and the single contraction of an
        unsliced batch).  Compiled mode only (the same rule
        :class:`SlicedExecutor` enforces).  A sampling run that computes
        many batches against one circuit is the prime beneficiary of the
        backend's persistent session — wrap the loop in
        ``with sampler.session(): ...`` so the workers are spawned once
        and each batch only republishes leaf data and the invariant cache
        for the resident plan.
    fault_policy:
        Optional :class:`~repro.execution.resilience.FaultPolicy` for
        batch execution: a long sampling run survives worker crashes and
        stuck chunks (bounded retries, pool rebuilds, degradation) with
        every recovered batch bit-identical to a clean run.  Requires a
        ``backend``; scoped to this sampler's batches (the backend itself
        is never reconfigured, so other users of a shared backend are
        unaffected).  Recovery counters accumulate across batches in
        :attr:`stats`.  A policy carrying ``checkpoint_dir`` additionally
        arms durable checkpointing per base bitstring: each batch
        contracts different leaf data, so each gets its own
        content-fingerprinted ledger in the same
        :class:`~repro.execution.checkpoint.CheckpointStore`, and a
        sampling run interrupted by a coordinator crash resumes with only
        the missing slots of the in-flight batch re-executed
        (bit-identical results; see :mod:`repro.execution.checkpoint`).
    fault_injector:
        Optional deterministic
        :class:`~repro.execution.faultinject.FaultInjector` (testing
        hook).  Requires a ``backend``.

    Attributes
    ----------
    stats:
        :class:`~repro.execution.plan.PlanStats` accumulated across every
        :meth:`compute_batch` call — including the resilience counters
        (``retries``, ``faults``, ``degraded_to``, ``recovery_seconds``).
        The resident executors write into this object directly, so each
        subtask is counted exactly once however many batches reuse them.
    """

    def __init__(
        self,
        circuit: Circuit,
        open_qubits: Sequence[int],
        target_rank: Optional[int] = None,
        max_trials: int = 8,
        seed: Optional[int] = None,
        executor_mode: str = "compiled",
        backend: Optional[ExecutionBackend] = None,
        fault_policy: Optional["FaultPolicy"] = None,
        fault_injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.circuit = circuit
        self.open_qubits = tuple(sorted(set(int(q) for q in open_qubits)))
        if not self.open_qubits:
            raise ValueError("at least one open qubit is required")
        for q in self.open_qubits:
            if not 0 <= q < circuit.num_qubits:
                raise ValueError(f"open qubit {q} out of range")
        self.target_rank = target_rank
        self.max_trials = int(max_trials)
        self.seed = seed
        validate_execution_args(executor_mode, backend=backend)
        self.executor_mode = executor_mode
        self.backend = backend
        if (fault_policy is not None or fault_injector is not None) and backend is None:
            raise ValueError("fault_policy/fault_injector require a backend")
        # kept on the sampler and forwarded per batch, so a shared backend
        # is never mutated and other users of it keep their own (or no)
        # fault configuration
        self.fault_policy = fault_policy
        self.fault_injector = fault_injector
        #: PlanStats accumulated across compute_batch calls (includes the
        #: resilience counters: retries, faults, degraded_to, recovery_seconds)
        self.stats = PlanStats()
        # single entry: the last network structure seen
        self._resident: Optional[_ResidentPlan] = None

    # ------------------------------------------------------------------
    def build_network(
        self, base_bitstring: Sequence[int], concrete: bool = True
    ) -> Tuple[TensorNetwork, Dict[int, str], complex]:
        """Build the partially-open network for one base bitstring.

        Returns the simplified network, the mapping from open qubit to its
        dangling index, and the simplifier's scalar prefactor.
        """
        if len(base_bitstring) != self.circuit.num_qubits:
            raise ValueError("base bitstring length mismatch")
        converter = CircuitToTensorNetwork(concrete=concrete)
        result = converter.convert(self.circuit)
        network = result.network
        open_index_of_qubit: Dict[int, str] = {}
        from ..tensornet.tensor import Tensor

        # basis vectors follow the network's dtype (complex64 circuits
        # must not get upcast through result_type by complex128 kets)
        basis_dtype = np.dtype(np.complex128)
        for tensor in network.tensors().values():
            if tensor.data is not None:
                basis_dtype = tensor.data.dtype
                break
        for qubit, index in result.output_index_of_qubit.items():
            if qubit in self.open_qubits:
                open_index_of_qubit[qubit] = index
                continue
            bit = int(base_bitstring[qubit])
            data = None
            if concrete:
                data = np.array([1.0, 0.0] if bit == 0 else [0.0, 1.0], dtype=basis_dtype)
            network.add_tensor(
                Tensor((index,), data=data, sizes={index: 2}, tags=("output", f"qubit:{qubit}"))
            )
        network.set_output_indices(list(open_index_of_qubit.values()))
        report = simplify_network(network)
        # simplification may re-route an open index onto a merged tensor but
        # never renames it, so the mapping stays valid
        return network, open_index_of_qubit, report.scalar_prefactor

    def plan_tree(self, network: TensorNetwork) -> ContractionTree:
        """Contraction tree for a batch network, searched once per structure.

        Memoised on :meth:`TensorNetwork.structure_key` (single entry, the
        last structure seen): structurally equal networks — every base
        bitstring of this sampler — get the same tree object back.  A
        different structure discards the resident executors and replans.
        """
        key = network.structure_key()
        resident = self._resident
        if resident is not None and resident.key == key:
            _LOG.debug("plan memo hit: structure %s", resident.digest)
            return resident.tree
        digest = hashlib.sha1(repr(key).encode()).hexdigest()[:12]
        if resident is None:
            _LOG.debug("plan memo miss: searching structure %s", digest)
        else:
            _LOG.info(
                "network structure changed (%s -> %s): dropping %d resident "
                "executor(s) and replanning",
                resident.digest,
                digest,
                len(resident.executors),
            )
        optimizer = HyperOptimizer(
            max_trials=self.max_trials,
            minimize="combo",
            memory_target_rank=self.target_rank,
            seed=self.seed,
        )
        tree = optimizer.search(network)
        self._resident = _ResidentPlan(key, digest, tree)
        return tree

    def _derived_slicing(self, network: TensorNetwork) -> FrozenSet[str]:
        """The planner's slicing set for the resident tree (found once)."""
        resident = self._resident
        assert resident is not None
        if resident.derived_slicing is None:
            tree = resident.tree
            slicing: FrozenSet[str] = frozenset()
            if self.target_rank is not None and tree.max_rank() > self.target_rank:
                from ..core.slice_finder import LifetimeSliceFinder

                found = LifetimeSliceFinder(self.target_rank).find(tree).sliced
                # the slicers treat open output indices as sliceable; they are not
                slicing = found & network.inner_indices()
                realised = tree.max_rank(slicing)
                if slicing != found and realised > self.target_rank:
                    _LOG.warning(
                        "slice finder chose open output indices %s, which cannot be "
                        "sliced: realised peak rank %d exceeds target_rank=%d",
                        sorted(found - slicing),
                        realised,
                        self.target_rank,
                    )
            resident.derived_slicing = slicing
        return resident.derived_slicing

    def _rebound_executor(
        self, network: TensorNetwork, slicing: FrozenSet[str]
    ) -> SlicedExecutor:
        """The resident executor for ``slicing``, holding ``network``'s leaves.

        The leaves are rebound into the resident network, which the
        executor sees as a data-only mutation: it keeps the compiled plan
        and drops the invariant cache, and a backend session takes its
        data-only republish path.
        """
        resident = self._resident
        assert resident is not None
        if resident.network is None:
            resident.network = network
        else:
            for tid in network:
                resident.network.replace_tensor(tid, network.tensor(tid))
        executor = resident.executors.get(slicing)
        if executor is None:
            # the fault policy/injector stay scoped to this sampler's runs
            executor = SlicedExecutor(
                resident.network,
                resident.tree,
                slicing,
                mode=self.executor_mode,
                backend=self.backend,
                fault_policy=self.fault_policy,
                fault_injector=self.fault_injector,
            )
            # a resident executor's counters are cumulative; pointing it at
            # the sampler-lifetime stats counts every subtask exactly once
            executor.stats = self.stats
            resident.executors[slicing] = executor
        return executor

    # ------------------------------------------------------------------
    def session(self):
        """Open (or reuse) the backend's persistent execution session.

        Every :meth:`compute_batch` call runs the same resident compiled
        plan with new leaf data, so inside a session the workers are
        spawned once and each batch takes the session's data-only path:
        the slice-dependent leaves and the re-warmed invariant cache are
        republished for the same plan object (the distributed session
        broadcasts the plan once and never again)::

            with sampler.session():
                batches = [sampler.compute_batch(b) for b in bases]

        Backends without resident state return a no-op session.
        """
        if self.backend is None:
            return NullExecutionSession(None)
        return self.backend.session()

    def close(self) -> None:
        """Release the backend's resident session state (idempotent)."""
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "CorrelatedSampler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def compute_batch(
        self,
        base_bitstring: Sequence[int],
        sliced: Optional[Iterable[str]] = None,
    ) -> CorrelatedSampleBatch:
        """Numerically compute the 2^k correlated amplitudes for one base bitstring.

        Parameters
        ----------
        base_bitstring:
            Values of the closed qubits (open-qubit entries ignored).
        sliced:
            Optional explicit slicing set (inner indices).  ``None`` derives
            one from the planner when the tree exceeds ``target_rank``.
        """
        network, open_index_of_qubit, prefactor = self.build_network(
            base_bitstring, concrete=True
        )
        tree = self.plan_tree(network)
        slicing = (
            frozenset(sliced) if sliced is not None else self._derived_slicing(network)
        )
        if slicing:
            executor = self._rebound_executor(network, slicing)
            # its leaves now live in the resident network: do not hold the
            # per-batch network (and its tensors' bookkeeping) through the run
            del network
            tensor = executor.run()
        else:
            tensor = TreeExecutor(
                compiled=self.executor_mode == "compiled",
                backend=self.backend,
            ).execute(network, tree)

        order = tuple(open_index_of_qubit[q] for q in self.open_qubits)
        tensor = tensor.transposed(order)
        amplitudes = np.asarray(tensor.require_data()) * prefactor
        base = tuple(
            0 if q in self.open_qubits else int(base_bitstring[q])
            for q in range(self.circuit.num_qubits)
        )
        return CorrelatedSampleBatch(
            base_bitstring=base,
            open_qubits=self.open_qubits,
            amplitudes=amplitudes,
        )


def linear_xeb_fidelity(probabilities: Sequence[float], num_qubits: int) -> float:
    """Linear cross-entropy benchmarking fidelity ``F = 2^n <p> - 1``.

    ``probabilities`` are the ideal-circuit probabilities of the bitstrings
    actually sampled (from hardware or from a simulator); an ideal device
    scores ≈ 1, a uniform sampler ≈ 0.
    """
    if not len(probabilities):
        raise ValueError("at least one probability is required")
    return (2.0**num_qubits) * float(np.mean(np.asarray(probabilities, dtype=np.float64))) - 1.0
