"""GPU occupancy calculator.

Computes the number of resident blocks per SM given a kernel's resource
footprint, and the resulting occupancy (active warps over the SM's warp
capacity).  The limiter string reports *why* occupancy is capped, which
the advisor and the resource-rationing algorithm (Section II-B2) consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resilience.errors import InfeasiblePlanError
from .device import DeviceSpec


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy of one kernel configuration on one device."""

    blocks_per_sm: int
    active_warps: int
    occupancy: float  # active threads / max threads per SM, in (0, 1]
    limiter: str  # 'threads' | 'blocks' | 'registers' | 'shmem' | 'none'
    #: warp/wavefront width of the device this was computed for (64 on
    #: AMD wavefront devices)
    warp_size: int = 32

    @property
    def active_threads(self) -> int:
        return self.active_warps * self.warp_size


def registers_per_block(
    device: DeviceSpec, threads_per_block: int, regs_per_thread: int
) -> int:
    """Register-file footprint of one block, honouring warp granularity."""
    warps = -(-threads_per_block // device.warp_size)
    per_warp = regs_per_thread * device.warp_size
    granularity = device.register_granularity
    per_warp = -(-per_warp // granularity) * granularity
    return warps * per_warp


def occupancy(
    device: DeviceSpec,
    threads_per_block: int,
    regs_per_thread: int,
    shmem_per_block: int,
) -> OccupancyResult:
    """Occupancy of a kernel with the given per-block footprint.

    Raises :class:`InfeasiblePlanError` (a ``ValueError``) when the
    configuration cannot launch at all (block too large, or one block
    exceeds an SM's resources).
    """
    if threads_per_block < 1:
        raise InfeasiblePlanError("threads_per_block must be positive")
    if threads_per_block > device.max_threads_per_block:
        raise InfeasiblePlanError(
            f"block of {threads_per_block} threads exceeds device limit "
            f"{device.max_threads_per_block}",
            threads=threads_per_block,
            device=device.name,
        )
    if shmem_per_block > device.shared_mem_per_block:
        raise InfeasiblePlanError(
            f"block needs {shmem_per_block} B shared memory, device allows "
            f"{device.shared_mem_per_block} B per block",
            shmem_bytes=shmem_per_block,
            device=device.name,
        )
    regs_per_thread = max(1, regs_per_thread)
    if regs_per_thread > device.max_registers_per_thread:
        raise InfeasiblePlanError(
            f"{regs_per_thread} registers/thread exceeds device limit "
            f"{device.max_registers_per_thread}",
            registers=regs_per_thread,
            device=device.name,
        )

    limits = {}
    limits["threads"] = device.max_threads_per_sm // threads_per_block
    limits["blocks"] = device.max_blocks_per_sm
    block_regs = registers_per_block(device, threads_per_block, regs_per_thread)
    limits["registers"] = device.registers_per_sm // block_regs if block_regs else (
        device.max_blocks_per_sm
    )
    if shmem_per_block > 0:
        limits["shmem"] = device.shared_mem_per_sm // shmem_per_block
    blocks = min(limits.values())
    if blocks < 1:
        # One block alone exceeds the SM's registers or shared memory.
        limiter = min(limits, key=limits.get)  # type: ignore[arg-type]
        raise InfeasiblePlanError(
            f"kernel cannot launch: resource {limiter!r} admits zero blocks",
            limiter=limiter,
            device=device.name,
        )
    limiter = min(limits, key=limits.get)  # type: ignore[arg-type]
    if blocks == device.max_blocks_per_sm and limiter != "blocks":
        limiter = "blocks"
    warps_per_block = -(-threads_per_block // device.warp_size)
    active_warps = min(blocks * warps_per_block, device.max_warps_per_sm)
    occ = active_warps / device.max_warps_per_sm
    return OccupancyResult(
        blocks_per_sm=blocks,
        active_warps=active_warps,
        occupancy=occ,
        limiter=limiter,
        warp_size=device.warp_size,
    )


def max_block_for_occupancy(
    device: DeviceSpec,
    target_occupancy: float,
    regs_per_thread: int,
    shmem_per_block: int,
) -> int:
    """Largest threads-per-block that still meets a target occupancy.

    Supports the paper's ``occupancy t`` clause: the rationing algorithm
    needs to know whether a configuration can reach the requested
    occupancy at all.  Returns 0 when no block size qualifies.
    """
    best = 0
    size = device.warp_size
    while size <= device.max_threads_per_block:
        try:
            result = occupancy(device, size, regs_per_thread, shmem_per_block)
        except ValueError:
            break
        if result.occupancy >= target_occupancy:
            best = size
        size *= 2
    return best
