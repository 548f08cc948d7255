"""SW26010pro processor and new-Sunway-system specification.

The numbers below come straight from §2.2 and §6 of the paper (plus the
2021 Gordon Bell companion paper for the peak-rate bookkeeping):

* each processor chip holds 6 core groups (CGs),
* each CG has one management processing element (MPE) and an 8×8 grid of
  64 computing processing elements (CPEs) — 390 cores per node,
* each CPE owns a 256 KB local data memory (LDM),
* each CG owns 16 GB of main memory (the paper unites the six CGs into a
  96 GB cross dump to hold large tensors),
* DMA between LDM and main memory peaks at 51.2 GB/s per CG,
* RMA between CPEs of one CG peaks at over 800 GB/s,
* the arithmetic-intensity ridge point quoted in §6.2 is 42.3 flop/byte,
  which together with the DMA bandwidth pins the per-CG single-precision
  peak at ≈ 2.17 Tflop/s (≈ 13 Tflop/s per node, ≈ 14 Pflop/s per 1024
  nodes).

Everything here is a plain frozen dataclass so experiments can build
"what-if" variants (e.g. a fatter LDM) by ``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

__all__ = [
    "SunwaySpec",
    "SW26010PRO",
    "COMPLEX64_BYTES",
    "COMPLEX128_BYTES",
]

# bytes per element of the two precisions the paper mentions
COMPLEX64_BYTES = 8  # single-precision complex (the production runs)
COMPLEX128_BYTES = 16  # double-precision complex


@dataclass(frozen=True)
class SunwaySpec:
    """Machine description of one node of the new Sunway supercomputer.

    Attributes mirror §2.2; see the module docstring for the provenance of
    every number.  Derived quantities are exposed as properties so that a
    modified spec stays self-consistent.
    """

    # chip layout
    cgs_per_node: int = 6
    cpes_per_cg: int = 64
    mpes_per_cg: int = 1

    # memory sizes (bytes)
    ldm_bytes: int = 256 * 1024
    main_memory_per_cg_bytes: int = 16 * 1024**3

    # bandwidths (bytes / second)
    dma_bandwidth: float = 51.2e9  # LDM <-> main memory, per CG
    rma_bandwidth: float = 800.0e9  # CPE <-> CPE within a CG, aggregate
    io_bandwidth: float = 2.0e9  # node <-> parallel filesystem
    network_bandwidth: float = 16.0e9  # node <-> node interconnect

    # latency-equivalent bytes: the transfer size at which a DMA/RMA engine
    # reaches 50 % of its peak bandwidth (the paper reports >50 % of peak at
    # 512 B granularity and <0.1 % for element-wise access)
    dma_half_bandwidth_bytes: float = 512.0
    rma_half_bandwidth_bytes: float = 256.0

    # compute rate
    arithmetic_intensity_ridge: float = 42.3  # flop / byte (single precision)
    gemm_peak_fraction: float = 0.70  # achievable fraction of peak on square GEMM

    # ------------------------------------------------------------------
    @property
    def cores_per_node(self) -> int:
        """Total cores per node (the paper's 390)."""
        return self.cgs_per_node * (self.cpes_per_cg + self.mpes_per_cg)

    @property
    def main_memory_per_node_bytes(self) -> int:
        """Main memory of a node when the 6 CGs are united (96 GB)."""
        return self.cgs_per_node * self.main_memory_per_cg_bytes

    @property
    def peak_flops_per_cg(self) -> float:
        """Single-precision peak of one CG, from the ridge point and DMA rate."""
        return self.arithmetic_intensity_ridge * self.dma_bandwidth

    @property
    def peak_flops_per_cpe(self) -> float:
        """Single-precision peak of one CPE."""
        return self.peak_flops_per_cg / self.cpes_per_cg

    @property
    def peak_flops_per_node(self) -> float:
        """Single-precision peak of one node."""
        return self.peak_flops_per_cg * self.cgs_per_node

    # ------------------------------------------------------------------
    def ldm_capacity_elements(self, element_bytes: int = COMPLEX64_BYTES) -> int:
        """How many elements of the given width fit in one LDM."""
        return self.ldm_bytes // element_bytes

    def ldm_max_rank(self, element_bytes: int = COMPLEX64_BYTES) -> int:
        """Largest rank-``r`` (size ``2^r``) tensor that fits in one LDM.

        For single-precision complex this is the paper's rank-13 bound
        (2^13 × 8 B = 64 KB, leaving room for the second operand and the
        output of a contraction step).
        """
        return int(math.floor(math.log2(self.ldm_capacity_elements(element_bytes)) - 2))

    def main_memory_max_rank(
        self, element_bytes: int = COMPLEX64_BYTES, united: bool = True
    ) -> int:
        """Largest tensor rank that fits in main memory (per CG or per node)."""
        capacity = (
            self.main_memory_per_node_bytes if united else self.main_memory_per_cg_bytes
        )
        return int(math.floor(math.log2(capacity // element_bytes)))

    def peak_flops_system(self, num_nodes: int) -> float:
        """Aggregate single-precision peak of ``num_nodes`` nodes."""
        return self.peak_flops_per_node * float(num_nodes)

    def with_overrides(self, **kwargs: object) -> "SunwaySpec":
        """Return a modified copy (thin wrapper over :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]


#: The default machine model used throughout the package.
SW26010PRO = SunwaySpec()
