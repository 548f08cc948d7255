"""Quickstart: plan and run a sliced tensor-network simulation end to end.

This walks the whole pipeline on a laptop-scale circuit:

1. generate a Sycamore-style random quantum circuit on a small grid,
2. plan the simulation (tensor network -> contraction tree -> lifetime-based
   slicing -> fused thread-level plan -> Sunway performance estimate),
3. numerically execute the sliced contraction and check it against the
   dense state-vector simulator.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import SimulationPlanner
from repro.analysis import format_kv
from repro.circuits import amplitude, grid_circuit


def main() -> None:
    # a 3x4 qubit grid, 8 cycles of random single-qubit gates + fSim couplers
    circuit = grid_circuit(rows=3, cols=4, cycles=8, seed=7)
    bitstring = [0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0]
    print(f"circuit: {circuit}")

    # plan with a deliberately small memory target so slicing actually happens
    planner = SimulationPlanner(target_rank=7, ldm_rank=5, max_trials=8, seed=0)
    plan = planner.plan_circuit(circuit, bitstring=bitstring, concrete=True)

    print(format_kv(plan.summary(), title="\nplanning summary"))
    print(f"\nsliced edges ({plan.slicing.num_sliced}): {sorted(plan.slicing.sliced)}")
    print(f"slicing overhead (Eq. 2): {plan.slicing.overhead:.4f}")
    print(
        "fused plan: "
        f"{plan.fused_plan.num_groups} groups covering {plan.fused_plan.total_steps} stem steps, "
        f"{plan.fused_plan.dma_transfers_saved()} DMA transfers saved"
    )

    # execute every slicing subtask and accumulate — this is exactly what the
    # machine does across nodes; here the sweep runs inline, or on children
    # forked over every usable core once a timed subtask shows the rest pays
    # for them (these subtasks are far too small), with the same bits either way
    value = planner.execute_plan(plan)
    reference = amplitude(circuit, bitstring)
    print(f"\nsliced TNC amplitude : {value:.12f}")
    print(f"state-vector reference: {reference:.12f}")
    print(f"agreement             : {abs(value - reference):.2e}")

    # performance picture on the Sunway model
    projection = plan.headline_projection(measured_nodes=64, projected_nodes=1024)
    print(format_kv(projection.summary(), title="\nSunway performance projection (modelled)"))


if __name__ == "__main__":
    main()
