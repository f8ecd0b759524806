"""Per-link simulation of a shared-spectrum BHSS network.

Each link's receiver sees the superposition of its own transmission,
the coupled neighbours' transmissions, its personal jammer, and thermal
noise, calibrated against the link's own nominal signal power.  A link
runs :meth:`LinkSimulator.run_packets`'s packet driver with the
neighbours' packets as extra medium sources, superposed before the
jammer; they are re-synthesized deterministically and consume no
randomness.  An N=1 network is therefore ``LinkSimulator.run_packets``
at every seed (the equivalence wall of ``tests/test_network.py``).
"""

from __future__ import annotations

from repro.channel.link_medium import MediumSource
from repro.core.link import LinkSimulator, LinkStats

# ``draw_jammer_wave`` and ``child_rng`` are re-exported: ``bench/tracing.py``
# attributes the jammer draw and the RNG through this module's names for them.
from repro.core.paths import TxPath, draw_jammer_wave  # noqa: F401
from repro.network.spec import NetworkSpec
from repro.runtime import resolve_batch
from repro.utils.rng import child_rng  # noqa: F401

__all__ = ["NetworkSimulator"]


class NetworkSimulator:
    """Runs every link of a :class:`NetworkSpec` through the shared medium.

    Links are mutually independent given the spec (interference is
    re-synthesized deterministically per victim), so ``run_link`` calls
    can execute in any order — or on different workers — and produce
    identical results; jammer state is rebuilt fresh per call, so even
    stateful jammers are order-free at the link level.
    """

    def __init__(self, spec: NetworkSpec) -> None:
        self.spec = spec
        # Each link's packets as interference at its neighbours.
        self._tx_paths = tuple(TxPath(link.config) for link in spec.links)

    def run_link(self, index: int) -> LinkStats:
        """Simulate all packets of link ``index``; aggregate statistics."""
        if not 0 <= index < self.spec.num_links:
            raise IndexError(f"link index {index} out of range (network has {self.spec.num_links})")
        link = self.spec.links[index]
        peers = self.spec.interferers(index)
        coupling = self.spec.coupling_db

        def interference(k: int) -> list[MediumSource]:
            """Packet ``k`` of every coupled neighbour, at its coupling power."""
            sources = []
            for j in peers:
                assert coupling is not None  # peers is empty otherwise
                power_db = coupling[index][j]
                assert power_db is not None  # interferers() filtered nulls
                sources.append(
                    MediumSource(
                        samples=self._tx_paths[j].synthesize(k).waveform,
                        power_db=power_db,
                        delay_samples=self.spec.cross_delay(index, j),
                        label=f"links[{j}]",
                    )
                )
            return sources

        sim = LinkSimulator(link.config)
        point = dict(
            snr_db=link.snr_db, sjr_db=link.sjr_db, jammer=link.build_jammer(), seed=link.seed,
            payload=None, jammer_delay_samples=link.jammer_delay_samples,
        )
        parts = sim._run_chunk(0, self.spec.packets, resolve_batch(), point, interference)
        return sim._stats(self.spec.packets, point, False, parts)
