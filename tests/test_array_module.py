"""Bitwise anchors of the execution engine: goldens and the dtype matrix.

* Three amplitudes recorded before the (since removed) array-module seam
  was introduced must be reproduced **bit for bit** by the one walker —
  the anchor that lets the engine be rewritten without drifting by an ulp;
* ``SlicedExecutor(fused=True)`` and ``batch_indices=``, which the
  benchmark's fused and batched variants still pass, select nothing: the
  same plan, the same bits, serial or pooled;
* complex64 / complex128 networks run end to end on every backend, with
  the plan's dtype derived from the leaves;
* a ``BENCH_*.json`` calibration entry written while the seam existed
  (carrying a stale ``array_module`` field) still loads.

(The file keeps its pre-PR-17 name so the surviving test ids stay stable.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import random_brickwork_circuit
from repro.costs.calibration import CalibratedCostModel
from repro.execution import (
    SerialBackend,
    SharedMemoryProcessPoolBackend,
    SlicedExecutor,
    ThreadPoolBackend,
    compile_plan,
)
from repro.paths import GreedyOptimizer
from repro.tensornet import amplitude_network, simplify_network

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Amplitudes recorded at the pre-seam HEAD (commit 2bd9333) with the
#: recipe of :func:`_case` — every engine must reproduce these bit for
#: bit.
GOLDEN = {
    13: complex(0.029431242362886093, 0.03588207209882284),
    29: complex(-0.09231979847578695, -0.062205940336102605),
    47: complex(0.026284952525787646, 0.003410798205459625),
}


def _case(seed=13, num_qubits=6, depth=4):
    circ = random_brickwork_circuit(num_qubits, depth, seed=seed)
    bits = tuple(int(b) for b in np.random.default_rng(seed).integers(0, 2, num_qubits))
    tn = amplitude_network(circ, list(bits))
    simplify_network(tn)
    tree = GreedyOptimizer(seed=1).tree(tn)
    sliced = sorted(tn.inner_indices())[:3]
    return tn, tree, sliced


def _cast_network(tn, dtype):
    """Cast every concrete leaf of ``tn`` to ``dtype`` in place."""
    for tid, tensor in tn.tensors().items():
        if tensor.data is not None:
            tn.replace_tensor(tid, tensor.with_data(tensor.data.astype(dtype)))


class TestNumpyModuleBitIdentity:
    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_matches_pre_seam_goldens_exactly(self, seed):
        tn, tree, sliced = _case(seed)
        assert SlicedExecutor(tn, tree, sliced).amplitude() == GOLDEN[seed]  # bitwise

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        chunk_size=st.integers(min_value=1, max_value=5),
    )
    @SETTINGS
    def test_seamed_execution_is_bitwise_default(self, seed, chunk_size):
        """Threads + any chunking ≡ the default serial run."""
        tn, tree, sliced = _case(seed, num_qubits=5, depth=3)
        baseline = SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()
        chunked = SlicedExecutor(
            tn,
            tree,
            sliced,
            backend=ThreadPoolBackend(max_workers=2, chunk_size=chunk_size),
        ).amplitude()
        assert chunked == baseline


class TestBenchSeam:
    """``fused=`` and ``batch_indices=`` survive only as the benchmark's
    switches: they select nothing."""

    @pytest.mark.parametrize("case", [*sorted(GOLDEN), "sampling-batch"])
    def test_fused_flag_selects_nothing(self, case):
        if case == "sampling-batch":
            from test_plan import _sampling_batch

            tn, tree, sliced = _sampling_batch()  # the inner-fold plan
        else:
            tn, tree, sliced = _case(case)
        sliced = sorted(sliced)
        default = SlicedExecutor(tn, tree, sliced)
        expected = default.run().require_data()
        if case in GOLDEN:
            assert complex(expected.reshape(())) == GOLDEN[case]
        pool = SharedMemoryProcessPoolBackend(max_workers=2)
        with pool.session() as session:
            for backend in (None, pool) if case in GOLDEN else (None,):
                for kwargs in (
                    dict(fused=True),
                    dict(batch_indices="auto"),
                    dict(batch_indices=sliced[1:3]),
                ):
                    seam = SlicedExecutor(tn, tree, sliced, backend=backend, **kwargs)
                    assert seam.plan.contract_steps == default.plan.contract_steps
                    assert seam.plan.arena_bytes == default.plan.arena_bytes
                    assert (case == "sampling-batch") == (seam.plan.inner_fold is not None)
                    assert seam.run().require_data().tobytes() == expected.tobytes(), kwargs
                    assert seam.stats.fused_steps == 0
                    assert seam.stats.tape_engine is None
                    assert seam.stats.fusion_breaks == {}
        # (each seam executor compiles its own plan: the crew forks once for each)
        assert session.forks == (3 if case in GOLDEN else 0)

    def test_bad_batch_spec_rejected(self):
        tn, tree, sliced = _case()
        outside = sorted(tn.inner_indices() - set(sliced))[0]
        for kwargs in (
            dict(batch_indices=[sliced[0], sliced[0]]),
            dict(batch_indices=[outside]),
            dict(batch_indices="auto", mode="reference"),
        ):
            with pytest.raises(ValueError, match="batch"):
                SlicedExecutor(tn, tree, sliced, **kwargs)

    def test_fused_requires_compiled_mode(self):
        tn, tree, sliced = _case()
        with pytest.raises(ValueError, match="compiled"):
            SlicedExecutor(tn, tree, sliced, mode="reference", fused=True)

    def test_bad_fused_spec_rejected(self):
        tn, tree, sliced = _case()
        for bad in ("yes-please", "auto"):
            with pytest.raises(ValueError, match="fused"):
                SlicedExecutor(tn, tree, sliced, fused=bad)


# ----------------------------------------------------------------------
# dtype derivation and the dtype matrix
# ----------------------------------------------------------------------
class TestDtypeMatrix:
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize(
        "make_backend", [None, lambda: ThreadPoolBackend(max_workers=2)]
    )
    def test_dtype_runs_end_to_end(self, dtype, make_backend):
        tn, tree, sliced = _case()
        _cast_network(tn, dtype)
        executor = SlicedExecutor(
            tn,
            tree,
            sliced,
            backend=make_backend() if make_backend is not None else None,
        )
        result = executor.run()
        assert result.data.dtype == np.dtype(dtype)
        tolerance = 1e-5 if dtype == np.complex64 else 1e-12
        assert complex(result.data.reshape(())) == pytest.approx(
            GOLDEN[13], rel=tolerance, abs=tolerance
        )

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_modes_agree_bitwise_per_dtype(self, dtype):
        tn, tree, sliced = _case(seed=29)
        _cast_network(tn, dtype)
        stepwise = SlicedExecutor(tn, tree, sliced, backend=SerialBackend()).amplitude()
        threads = SlicedExecutor(
            tn, tree, sliced, backend=ThreadPoolBackend(max_workers=2)
        ).amplitude()
        assert threads == stepwise

    def test_plan_dtype_derived_from_leaves(self):
        tn, tree, sliced = _case()
        _cast_network(tn, np.complex64)
        plan = compile_plan(tn, tree, sliced)
        assert plan.dtype == np.dtype(np.complex64)

    def test_explicit_dtype_wins_over_derived(self):
        tn, tree, sliced = _case()
        plan = compile_plan(tn, tree, sliced, dtype=np.complex64)
        assert plan.dtype == np.dtype(np.complex64)

    def test_mixed_leaves_derive_result_type(self):
        tn, tree, sliced = _case()
        _cast_network(tn, np.complex64)
        # upcast a single leaf: the derived dtype must follow result_type
        tid, tensor = next(
            (t, x) for t, x in tn.tensors().items() if x.data is not None
        )
        tn.replace_tensor(tid, tensor.with_data(tensor.data.astype(np.complex128)))
        plan = compile_plan(tn, tree, sliced)
        assert plan.dtype == np.dtype(np.complex128)


class TestModuleCalibration:
    def test_bench_json_roundtrip(self):
        """A calibration section written while the array-module seam
        existed still loads: the stale field is ignored, not an error."""
        payload = {
            "calibration": {
                "subtask_flops": 1e6,
                "num_steps": 10,
                "backends": {
                    "serial": {
                        "subtask_seconds": [1e-3],
                        "tape_engine": "python",
                        "array_module": "numpy",
                    },
                },
            }
        }
        model = CalibratedCostModel.from_bench_json(payload)
        assert set(model.backends) == {"serial"}
