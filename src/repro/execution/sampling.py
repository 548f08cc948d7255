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
* :class:`CorrelatedSampler` — builds the network once and replays only
  the merges a bitstring changes, plans such a batch once per network
  *structure* and executes it per base bitstring by rebinding the changed
  leaves into a resident compiled plan (numerically for laptop-scale
  circuits, abstractly for planning-only studies);
* :func:`linear_xeb_fidelity` — the standard XEB estimator
  ``F = 2^n <p(x)> - 1``.
"""

from __future__ import annotations

import hashlib
import logging
import math
import mmap
import pickle
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .. import forking
from ..circuits.circuit import Circuit
from ..paths.optimizer import HyperOptimizer
from ..tensornet.circuit_to_tn import CircuitToTensorNetwork
from ..tensornet.contraction_tree import ContractionTree
from ..tensornet.network import TensorNetwork, TensorNetworkError
from ..tensornet.simplify import simplify_network
from ..tensornet.tensor import Tensor
from .backend import (
    ExecutionBackend,
    NullExecutionSession,
    _folded,
    _swept_blocks,
    validate_execution_args,
)
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
    against; each batch rebinds the leaves it changed (``replace_tensor``)
    instead of compiling a new plan.
    """

    key: Tuple
    digest: str
    tree: ContractionTree
    network: Optional[TensorNetwork] = None
    derived_slicing: Optional[FrozenSet[str]] = None
    executors: Dict[FrozenSet[str], SlicedExecutor] = field(default_factory=dict)


class _Merge(NamedTuple):
    """One logged merge: ``contract_pair(a, b)`` stored its result as ``out``.

    ``x`` / ``y`` hold an operand's data when it descends from no ket (the
    same array for every bitstring) and ``None`` when it is replayed;
    ``axes`` are the ``tensordot`` axes the merge summed over.
    """

    a: int
    b: int
    out: int
    x: Optional[np.ndarray]
    y: Optional[np.ndarray]
    axes: Tuple[List[int], List[int]]


class _LoggedBuild(TensorNetwork):
    """A sampler's one full build, logging what simplification does to its kets.

    The simplifier chooses every merge from ranks and tensor ids, never from
    data, so each base bitstring's network is simplified by the same merges
    in the same order.  A merge *descends from a ket* — a closed qubit's
    output projector — when either operand does, and only those merges see
    the bitstring.  Each is logged with its constant operand, and the
    scalars the simplifier folds into its prefactor are logged in order, so
    :meth:`replay` can run them again on other kets: the same ``tensordot``
    calls on the same operands, hence bitwise the tensors and the prefactor
    a full build makes (signed zeros included).

    ``simplify_network`` merges a concrete pair only through
    :meth:`contract_pair` and folds a scalar into its prefactor by
    :meth:`remove_tensor`, so those two methods keep the log.  An abstract
    build logs nothing: its tensors carry no data, so every bitstring's
    network is the same.
    """

    def __init__(self, network: TensorNetwork) -> None:
        super().__init__()
        self._logging = False
        for tid, tensor in network.tensors().items():
            self.add_tensor(tensor, tid=tid)
        self.open_index_of_qubit: Dict[int, str] = {}
        #: ket tid -> (qubit, (|0> data, |1> data))
        self.kets: Dict[int, Tuple[int, Tuple[np.ndarray, np.ndarray]]] = {}
        self.merges: List[_Merge] = []
        #: the scalars folded into the prefactor, in order
        self.scalars: List[int] = []
        self._descended: Set[int] = set()

    def add_ket(self, qubit: int, index: str, bit: int, dtype: Optional[np.dtype]) -> None:
        """Project ``qubit``'s output ``index`` on ``bit`` (abstractly if no dtype)."""
        tags = ("output", f"qubit:{qubit}")
        if dtype is None:
            self.add_tensor(Tensor((index,), sizes={index: 2}, tags=tags))
            return
        kets = (np.array([1.0, 0.0], dtype=dtype), np.array([0.0, 1.0], dtype=dtype))
        tid = self.add_tensor(Tensor((index,), data=kets[bit], tags=tags))
        self.kets[tid] = (qubit, kets)
        self._descended.add(tid)

    def simplify(self) -> None:
        """``simplify_network`` in place, logging a concrete build's ket merges."""
        self._logging = self.is_concrete()
        simplify_network(self)
        self._logging = False

    def remove_tensor(self, tid: int) -> Tensor:
        tensor = super().remove_tensor(tid)
        if self._logging:
            # outside a merge the simplifier removes only the scalars it folds
            # into its prefactor; each descends from a ket, because a
            # component without an open qubit has a closed one
            self.scalars.append(tid)
        return tensor

    def contract_pair(self, tid_a: int, tid_b: int) -> int:
        if not self._logging:
            return super().contract_pair(tid_a, tid_b)
        a, b = self.tensor(tid_a), self.tensor(tid_b)
        self._logging = False  # the pair's own removals are not scalars
        out = super().contract_pair(tid_a, tid_b)
        self._logging = True
        from_a, from_b = tid_a in self._descended, tid_b in self._descended
        if from_a or from_b:
            shared = set(a.indices) & set(b.indices)
            if shared & set(self.tensor(out).indices):
                # contract_pair keeps an open or hyper index through einsum;
                # a circuit's wires join at most two tensors and its open
                # wires one, so a sampler's network never does
                raise TensorNetworkError(f"merge of tensors {tid_a} and {tid_b} kept an index")
            summed = sorted(shared)
            axes = ([a.indices.index(ix) for ix in summed], [b.indices.index(ix) for ix in summed])
            self._descended.add(out)
            self.merges.append(
                _Merge(
                    tid_a,
                    tid_b,
                    out,
                    None if from_a else a.data,
                    None if from_b else b.data,
                    axes,
                )
            )
        return out

    def replay(self, bits: Dict[int, int]) -> Tuple[TensorNetwork, complex]:
        """The simplified network and prefactor for closed-qubit ``bits``."""
        data = {tid: kets[bits[qubit]] for tid, (qubit, kets) in self.kets.items()}
        for merge in self.merges:
            x = data.pop(merge.a) if merge.x is None else merge.x
            y = data.pop(merge.b) if merge.y is None else merge.y
            data[merge.out] = np.tensordot(x, y, axes=merge.axes)
        prefactor = 1.0 + 0.0j
        for tid in self.scalars:
            prefactor *= complex(data.pop(tid))
        # what is left are the simplified network's leaves that descend from a ket
        network = self.copy()
        for tid, array in data.items():
            network.replace_tensor(tid, self.tensor(tid).with_data(array))
        return network, prefactor


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

    A batch pays only for what its bitstring changes.  The circuit is
    converted and simplified once; that build logs the merges that descend
    from a closed qubit's ket, and every :meth:`build_network` replays only
    those, in order, on its own kets (:class:`_LoggedBuild`).  Only the
    leaves whose bits differ from the resident ones are rebound, so a
    repeated bitstring rebinds nothing and keeps the warm invariant cache.
    On the bench's 4×5, m = 8 batch (8 open qubits, 52 leaves) with one
    BLAS thread on a 2-vCPU VM:

    =====================  ===================  =========================
    per batch              full build           replay
    =====================  ===================  =========================
    ``build_network``      14.0–14.7 ms,        0.8–1.1 ms,
                           222 merges           54 merges
    rebinding              0.2 ms, 52 leaves    0.05 ms, a median 5 leaves
    the sweep, inline      the same ≈ 55–70 ms  the same
    the sweep, twinned     —                    its 32 blocks split 16/16
                                                with a forked twin
    =====================  ===================  =========================

    Inside :meth:`session` a sampler without a backend splits its batches
    with one forked twin once their summed sweep seconds would have paid
    for a fork: the twin rebuilds and rebinds the same batch itself from
    the closed qubits' bits, runs the trailing half of its blocks while
    the parent runs the leading half, and writes each block's contribution
    into a row of shared memory; the parent adds the rows in position
    order, so the bits are the inline batch's.  The twin stays only if one
    of its first two warm split batches swept faster than the fastest
    inline one.  On the bench's
    sampler a batch went from ≈ 80 ms inline to ≈ 45 ms split on a 2-vCPU
    VM; batches of a few milliseconds stay inline.

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
        batch execution (every batch runs on a resident
        :class:`SlicedExecutor`, an unsliced one with an empty slicing
        set, i.e. one subtask).  Compiled mode only (the same rule
        :class:`SlicedExecutor` enforces).  A sampling run that computes
        many batches against one circuit is the prime beneficiary of the
        backend's persistent session — wrap the loop in
        ``with sampler.session(): ...`` so the workers are spawned once
        and each batch only republishes leaf data and the invariant cache
        for the resident plan.  Without a backend, the same loop is where
        batches may split with a forked twin (see :meth:`session`); an
        explicit backend never does, and a batch outside a session runs
        inline.
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
        # the one full build per ``concrete`` flag, replayed for every bitstring
        self._builds: Dict[bool, _LoggedBuild] = {}
        # the open sampling session of a sampler without a backend
        self._session: Optional[_SamplingSession] = None

    # ------------------------------------------------------------------
    def build_network(
        self, base_bitstring: Sequence[int], concrete: bool = True
    ) -> Tuple[TensorNetwork, Dict[int, str], complex]:
        """Build the partially-open network for one base bitstring.

        Returns the simplified network, the mapping from open qubit to its
        dangling index, and the simplifier's scalar prefactor.

        Only the first call per ``concrete`` converts and simplifies the
        circuit; it logs the merges that descend from a closed qubit's ket
        (:class:`_LoggedBuild`).  Every call replays those merges on its
        own kets and returns a fresh network, sharing the other tensors
        with the first build, that is tensor by tensor, prefactor included,
        bitwise what a full build returns.  A closed qubit's bit must be 0
        or 1 (``ValueError`` naming the qubit otherwise).
        """
        return self._build(self._closed_bits(base_bitstring), concrete)

    def _closed_bits(self, base_bitstring: Sequence[int]) -> Dict[int, int]:
        """The closed qubits' bits, each 0 or 1 (``ValueError`` otherwise)."""
        if len(base_bitstring) != self.circuit.num_qubits:
            raise ValueError("base bitstring length mismatch")
        bits: Dict[int, int] = {}
        for qubit in range(self.circuit.num_qubits):
            if qubit in self.open_qubits:
                continue
            bit = base_bitstring[qubit]
            if bit not in (0, 1):
                raise ValueError(f"closed qubit {qubit} has bit {bit!r}; expected 0 or 1")
            bits[qubit] = int(bit)
        return bits

    def _build(
        self, bits: Dict[int, int], concrete: bool
    ) -> Tuple[TensorNetwork, Dict[int, str], complex]:
        build = self._builds.get(concrete)
        if build is None:
            build = self._builds[concrete] = self._log_build(bits, concrete)
        network, prefactor = build.replay(bits)
        return network, dict(build.open_index_of_qubit), prefactor

    def _log_build(self, bits: Dict[int, int], concrete: bool) -> "_LoggedBuild":
        """Convert and simplify the circuit once, logging the kets' merges."""
        result = CircuitToTensorNetwork(concrete=concrete).convert(self.circuit)
        build = _LoggedBuild(result.network)
        # basis vectors follow the network's dtype (its first tensor, an
        # input ket), so they never upcast a merge through result_type
        dtype = next(iter(result.network.tensors().values())).data.dtype if concrete else None
        for qubit, index in result.output_index_of_qubit.items():
            if qubit in self.open_qubits:
                build.open_index_of_qubit[qubit] = index
            else:
                build.add_ket(qubit, index, bits[qubit], dtype)
        # simplification may re-route an open index onto a merged tensor but
        # never renames it, so the mapping stays valid
        build.set_output_indices(list(build.open_index_of_qubit.values()))
        build.simplify()
        return build

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
    ) -> Tuple[SlicedExecutor, int]:
        """The resident executor for ``slicing``, holding ``network``'s leaves.

        Only the leaves whose dtype or bytes differ from the resident ones
        are rebound into the resident network, which the executor sees at
        once as a data-only mutation: it keeps the compiled plan and drops
        the invariant cache, and a backend session takes its data-only
        republish path.  When no leaf differs (the same bitstring again)
        the warm cache is kept.  Returns the executor and the number of
        leaves rebound.
        """
        resident = self._resident
        assert resident is not None
        if resident.network is None:
            resident.network = network
            rebound = len(network)
        else:
            rebound = 0
            for tid in network:
                tensor = network.tensor(tid)
                if not _same_bits(resident.network.tensor(tid), tensor):
                    resident.network.replace_tensor(tid, tensor)
                    rebound += 1
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
        executor._refresh_stale_plan()
        return executor, rebound

    # ------------------------------------------------------------------
    def session(self):
        """Open (or reuse) a session for a run of batches::

            with sampler.session():
                batches = [sampler.compute_batch(b) for b in bases]

        With a ``backend``, its persistent execution session: every
        :meth:`compute_batch` call runs the same resident compiled plan
        with new leaf data, so the workers are spawned once and each batch
        takes the session's data-only path — the slice-dependent leaves
        and the re-warmed invariant cache are republished for the same
        plan object (the distributed session broadcasts the plan once and
        never again).  Backends without resident state return a no-op
        session.

        Without one, a sampling session (:class:`_SamplingSession`): its
        batches run inline, as outside a session, and add up the seconds
        their sweeps take; once that sum would already have paid for a
        fork (:func:`repro.forking.pool_pays` with the batches run so far,
        in a process with one native thread), the session forks one *twin*
        and splits every later batch with it: the parent sends the closed
        qubits' bits, both processes prepare the batch with the same code,
        the twin runs the trailing half of its blocks into shared memory
        while the parent runs the leading half, and the parent adds the
        twin's contributions in position order — bitwise the inline batch,
        each subtask counted once in :attr:`stats`.  Split batches are
        timed: unless one of the first two warm ones (after the twin's
        first) sweeps faster than the fastest inline batch, the twin retires
        and the session stays inline (one ``INFO`` line).  A run too short
        to pay for a fork — one batch, say — stays a no-op, and so does a
        plan of fewer than 2 blocks.  A batch the twin cannot mirror (an
        explicit ``sliced=``, a new network structure) retires it and runs
        inline; a twin that dies costs one ``WARNING`` on
        ``repro.execution.sampling``, its blocks run inline with the same
        bits and the session stays inline.  Closing the session or the
        sampler, garbage collection and interpreter exit retire the twin:
        killed, reaped, pipes closed.
        """
        if self.backend is not None:
            return self.backend.session()
        if self._session is None or self._session.closed:
            self._session = _SamplingSession()
        return self._session

    def close(self) -> None:
        """Retire the sampling session's twin and release the backend's
        resident session state (idempotent)."""
        if self._session is not None:
            self._session.close()
            self._session = None
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
            Values of the closed qubits, each 0 or 1 (open-qubit entries
            ignored); anything else raises ``ValueError`` naming the qubit.
        sliced:
            Optional explicit slicing set (inner indices).  ``None`` derives
            one from the planner when the tree exceeds ``target_rank``.
        """
        bits = self._closed_bits(base_bitstring)
        session = self._session
        split = None if session is None else session.split_for(self, bits, sliced)
        try:
            executor, open_index_of_qubit, prefactor = self._prepare(bits, sliced)
            del bits  # (not held through the sweep)
            started = time.perf_counter()
            if split is not None:
                tensor = self._split_run(executor, split, session)
                session.ran_split(split, time.perf_counter() - started)
            else:
                tensor = executor.run()
                if session is not None and sliced is None:
                    seconds = time.perf_counter() - started
                    session.ran_inline(self, executor, seconds, tensor.require_data().itemsize)
        except BaseException:
            if split is not None:
                session.retire()  # (the twin may be in the middle of the batch)
            raise

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

    def _prepare(
        self, bits: Dict[int, int], sliced: Optional[Iterable[str]]
    ) -> Tuple[SlicedExecutor, Dict[int, str], complex]:
        """A batch up to its sweep, the same in the parent and in a twin:
        replay the build on ``bits``, look the tree up, derive the slicing
        and rebind the changed leaves into the resident executor."""
        network, open_index_of_qubit, prefactor = self._build(bits, True)
        self.plan_tree(network)
        slicing = (
            frozenset(sliced) if sliced is not None else self._derived_slicing(network)
        )
        leaves = len(network)
        # (its leaves now live in the resident network: the per-batch
        # network, and its tensors' bookkeeping, die with this frame)
        executor, rebound = self._rebound_executor(network, slicing)
        _LOG.debug(
            "replayed %d merges, rebound %d of %d leaves",
            len(self._builds[True].merges),
            rebound,
            leaves,
        )
        return executor, open_index_of_qubit, prefactor

    def _split_run(
        self, executor: SlicedExecutor, split: "_Split", session: "_SamplingSession"
    ) -> Tensor:
        """The parent's side of a split batch: warm the cache, run the leading
        blocks while the twin runs the trailing ones, then add the twin's
        rows to the running sum in position order — the serial loop's
        additions — merge the twin's stats and run the tail."""
        plan, network, cache = executor.plan, executor.network, executor._cache
        slots = executor.backend._slots
        executor.backend.warm(plan, network, cache, self.stats)
        accumulated = None
        for _, data in _swept_blocks(
            plan, network, executor.assignments(), cache, self.stats, slots, 0, split.start
        ):
            accumulated = _folded(accumulated, data)
        try:
            reply = split.twin.wait()
        except (EOFError, OSError) as exc:
            session.lose(exc, f"blocks {split.start}-{split.stop - 1} of this batch run")
            rows = (
                data
                for _, data in _swept_blocks(
                    plan, network, executor.assignments(), cache, self.stats, slots, split.start
                )
            )
        else:
            self.stats.merge(pickle.loads(reply))
            rows = split.rows(accumulated.dtype)
        for data in rows:
            accumulated = _folded(accumulated, data)
        data = plan.finish(network, accumulated, cache, self.stats)
        return Tensor(plan.out_indices, data=data, sizes=plan.out_sizes)

    def _serve_twin(self, split: "_Split") -> bytes:
        """The twin's side of a split batch: the parent's preparation on the
        bits it sent, the warm pass (counted by the parent), and the trailing
        blocks, each into its row; the reply is those blocks' stats."""
        executor, _, _ = self._prepare(dict(zip(split.closed, split.request)), None)
        if executor is not split.executor:
            raise RuntimeError("the twin's resident executor is not its parent's")
        plan, network, cache = executor.plan, executor.network, executor._cache
        executor.backend.warm(plan, network, cache, None)
        stats = PlanStats()
        for position, data in _swept_blocks(
            plan, network, executor.assignments(), cache, stats, executor.backend._slots,
            split.start, split.stop,
        ):
            np.copyto(split.rows(data.dtype)[position - split.start], data)
        return pickle.dumps(stats)


class _Split:
    """A forked twin (:class:`repro.forking.Twin`) and what it shares with
    the parent: the trailing half of every batch's blocks, each block's
    contribution a row of an anonymous mapping made before the fork.  A
    request is the closed qubits' bits, one byte each; a reply the pickled
    :class:`~repro.execution.plan.PlanStats` of the twin's blocks."""

    def __init__(
        self,
        sampler: CorrelatedSampler,
        executor: SlicedExecutor,
        blocks: int,
        itemsize: int,
        inline_s: float,
    ) -> None:
        self.executor, self.resident = executor, sampler._resident
        self.start, self.stop = blocks // 2, blocks
        #: the fastest inline sweep, which a warm split batch must beat
        #: (``None`` once one has)
        self.inline_s: Optional[float] = inline_s
        self.batches = 0
        self.closed = tuple(
            q for q in range(sampler.circuit.num_qubits) if q not in sampler.open_qubits
        )
        self.request = bytearray(len(self.closed))
        self._shape = (blocks - self.start, *executor.plan.contribution_shape)
        # rows sized at the result's itemsize, which no contribution exceeds
        self._mapping = mmap.mmap(-1, itemsize * math.prod(self._shape))
        # (the parent keeps no reference to what the twin serves)
        self.twin = forking.Twin(lambda: sampler._serve_twin(self), self.request)

    def send(self, bits: Dict[int, int]) -> None:
        """Start the twin on the batch of ``bits``."""
        request = self.request
        for index, qubit in enumerate(self.closed):
            request[index] = bits[qubit]
        self.twin.send()

    def rows(self, dtype: np.dtype) -> np.ndarray:
        """The twin's contributions, one block a row, in position order."""
        return np.frombuffer(self._mapping, dtype, math.prod(self._shape)).reshape(self._shape)

    def close(self) -> None:
        self.twin.close()


class _SamplingSession(NullExecutionSession):
    """:meth:`CorrelatedSampler.session` without a backend: batches run
    inline and add up their sweep seconds until one forked twin would have
    paid for itself, then split with it (:class:`_Split`) — unless neither
    of the first two warm split batches beats the fastest inline sweep.

    A batch the twin cannot mirror — an explicit ``sliced=``, a new network
    structure — retires it and runs inline; the count starts again.  A twin
    that dies costs one ``WARNING``: the parent runs its blocks inline (the
    same bits) and the session stays inline.
    """

    def __init__(self) -> None:
        super().__init__(None)
        self.inline_seconds = 0.0
        self.inline_batches = 0
        self.fastest_inline = math.inf
        self.split: Optional[_Split] = None
        self.stay_inline = False

    def split_for(
        self, sampler: CorrelatedSampler, bits: Dict[int, int], sliced: Optional[Iterable[str]]
    ) -> Optional[_Split]:
        """The twin, started on ``bits`` — ``None`` for an inline batch."""
        split = self.split
        if split is None:
            return None
        if sliced is not None or sampler._resident is not split.resident:
            self.retire()
            return None
        try:
            split.send(bits)
        except (EOFError, OSError) as exc:
            self.lose(exc, "the batch runs")
            return None
        return split

    def ran_inline(
        self, sampler: CorrelatedSampler, executor: SlicedExecutor, seconds: float, itemsize: int
    ) -> None:
        """Count an inline batch's sweep; fork the twin once the sum pays."""
        if self.closed or self.stay_inline or executor.plan is None:
            return
        self.inline_seconds += seconds
        self.inline_batches += 1
        self.fastest_inline = min(self.fastest_inline, seconds)
        inline_s = self.inline_seconds / self.inline_batches
        # (a multi-threaded BLAS already spreads every GEMM over the cores)
        if not (
            forking.pool_pays(inline_s, self.inline_batches) and forking.native_threads() == 1
        ):
            return
        blocks = sum(1 for _ in executor.plan.blocks(executor.assignments()))
        if blocks < 2:
            return
        try:
            self.split = _Split(sampler, executor, blocks, itemsize, self.fastest_inline)
        except OSError as exc:
            self.lose(exc, "the next batch runs")

    def ran_split(self, split: _Split, seconds: float) -> None:
        """Judge the first two warm split batches (the twin's first batch
        copies the pages it writes): unless one of them swept faster than
        the fastest inline batch, the twin retires for the rest of the
        session — a batch too small to share pays the pipe and the twin's
        own preparation for nothing.  Fastest against either of two, since
        noise only ever slows a sweep down."""
        if split is not self.split or split.inline_s is None:
            return  # (lost during the batch, or judged already)
        split.batches += 1
        if split.batches == 1:
            return
        if seconds < split.inline_s:
            split.inline_s = None
        elif split.batches == 3:
            _LOG.info(
                "sampling twin retired: neither of two warm split sweeps beat the "
                "fastest inline one, %.2f ms (the last took %.2f ms); every later "
                "batch of this session runs inline",
                split.inline_s * 1e3,
                seconds * 1e3,
            )
            self.retire()
            self.stay_inline = True

    def lose(self, exc: BaseException, what: str) -> None:
        """The twin died or could not start: one warning; inline from now on."""
        # (the text, not the exception: a kept record must not pin its frames)
        _LOG.warning(
            "sampling twin lost (%s: %s); %s inline, and so does every later batch of this session",
            type(exc).__name__,
            str(exc),
            what,
        )
        self.retire()
        self.stay_inline = True

    def retire(self) -> None:
        """Kill and reap the twin, if any; inline batches count again from zero."""
        if self.split is not None:
            self.split.close()
            self.split = None
        self.inline_seconds, self.inline_batches, self.fastest_inline = 0.0, 0, math.inf

    def close(self) -> None:
        self.retire()
        super().close()


def _same_bits(old: Tensor, new: Tensor) -> bool:
    """Whether ``new`` need not be rebound over ``old`` (same structure)."""
    a, b = old.require_data(), new.require_data()
    return old is new or (a.dtype == b.dtype and a.tobytes() == b.tobytes())


def linear_xeb_fidelity(probabilities: Sequence[float], num_qubits: int) -> float:
    """Linear cross-entropy benchmarking fidelity ``F = 2^n <p> - 1``.

    ``probabilities`` are the ideal-circuit probabilities of the bitstrings
    actually sampled (from hardware or from a simulator); an ideal device
    scores ≈ 1, a uniform sampler ≈ 0.
    """
    if not len(probabilities):
        raise ValueError("at least one probability is required")
    return (2.0**num_qubits) * float(np.mean(np.asarray(probabilities, dtype=np.float64))) - 1.0
