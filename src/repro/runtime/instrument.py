"""Sweep instrumentation: wall times, throughput, pool utilization.

A :class:`SweepTiming` is attached to every :class:`~repro.analysis.sweep.
SweepResult` produced by ``run_sweep`` and rendered by the benchmark
harness's ``save_and_print`` and the CLI's run summaries, so speedups
(and regressions) are visible next to the tables they time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SweepTiming"]


@dataclass(frozen=True)
class SweepTiming:
    """Timing telemetry of one sweep.

    Attributes
    ----------
    wall_seconds:
        End-to-end wall time of the whole sweep.
    point_seconds:
        Per-grid-point wall time, in grid order, measured inside the
        worker that evaluated the point.
    workers:
        Effective pool size (1 = serial).
    packets:
        Total packets simulated, when the caller knows it (enables
        packets/sec reporting).
    batch_size:
        Upper bound on packets per stacked call of the link (``None``
        when unknown; ``0`` and ``1`` both mean one packet per call).
    retries:
        Task attempts beyond the first that the supervisor recovered
        (injected or real crashes, hangs and task errors).
    """

    wall_seconds: float
    point_seconds: tuple[float, ...]
    workers: int = 1
    packets: int | None = None
    batch_size: int | None = None
    retries: int = 0

    @property
    def num_points(self) -> int:
        """Number of grid points timed."""
        return len(self.point_seconds)

    @property
    def busy_seconds(self) -> float:
        """Total in-worker compute time across all points."""
        return float(sum(self.point_seconds))

    @property
    def raw_utilization(self) -> float:
        """``busy / (workers * wall)`` with no clamping.

        Values above 1.0 are physically impossible for a well-measured
        pool, so they indicate a measurement problem (overlapping timers,
        wrong worker count) — :attr:`utilization` hides that by clamping,
        this property surfaces it for diagnostics and tests.
        """
        if self.wall_seconds <= 0 or self.workers <= 0:
            return 0.0
        return self.busy_seconds / (self.workers * self.wall_seconds)

    @property
    def utilization(self) -> float:
        """Fraction of the pool's wall-time capacity spent computing.

        Clamped to ``[0, 1]`` for display; see :attr:`raw_utilization`
        for the unclamped diagnostic value.
        """
        return min(1.0, self.raw_utilization)

    @property
    def points_per_second(self) -> float:
        """Grid points evaluated per wall second."""
        return self.num_points / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def packets_per_second(self) -> float | None:
        """Packets simulated per wall second (``None`` if unknown)."""
        if self.packets is None or self.wall_seconds <= 0:
            return None
        return self.packets / self.wall_seconds

    def to_dict(self) -> dict:
        """Flat JSON-friendly dict (for BENCH files and sidecars)."""
        out = {
            "wall_seconds": self.wall_seconds,
            "point_seconds": list(self.point_seconds),
            "workers": self.workers,
            "num_points": self.num_points,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization,
            "raw_utilization": self.raw_utilization,
            "points_per_second": self.points_per_second,
        }
        if self.packets is not None:
            out["packets"] = self.packets
            out["packets_per_second"] = self.packets_per_second
        if self.batch_size is not None:
            out["batch_size"] = self.batch_size
        if self.retries:
            out["retries"] = self.retries
        return out

    def summary(self) -> str:
        """One-line human-readable rendering."""
        parts = [
            f"{self.num_points} points in {self.wall_seconds:.2f} s "
            f"({self.points_per_second:.2f} pts/s)",
            f"workers {self.workers}",
            f"utilization {100 * self.utilization:.0f}%",
        ]
        if self.packets is not None:
            parts.insert(1, f"{self.packets} packets ({self.packets_per_second:.1f} pkt/s)")
        if self.batch_size is not None:
            parts.append(f"batch {max(1, self.batch_size)}")
        if self.retries:
            parts.append(f"retries {self.retries}")
        return "timing: " + ", ".join(parts)
