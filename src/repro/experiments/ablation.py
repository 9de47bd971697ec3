"""Ablation studies called out in DESIGN.md §6 (beyond the paper's figures).

* **placement** — Section 4.1's side-by-side layout vs separate placement:
  with independent systematic fields, each instance's differential margin
  acquires a die-level bias, skewing per-instance uniformity.
* **comparator noise** — response error rate vs input-referred noise and
  majority-vote count (the practical reliability knob of Fig. 8's
  measurability story).
* **solver choice** — the maxflow engine must return identical responses
  for every algorithm.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.ptm32 import PTM32
from repro.experiments.base import ExperimentTable
from repro.ppuf import CurrentComparator, Ppuf
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.ppuf.engines import network_current


def placement_ablation(
    *,
    n: int = 16,
    l: int = 4,
    instances: int = 10,
    challenges: int = 20,
    systematic_sigma: float = 0.12,
    seed: int = 2016,
) -> ExperimentTable:
    """Uniformity spread with vs without side-by-side placement.

    Uses an exaggerated systematic sigma so the effect is visible at
    laptop-scale instance counts.
    """
    tech = dataclasses.replace(PTM32, sigma_vt_systematic=systematic_sigma)
    table = ExperimentTable(
        title="Placement ablation: per-instance uniformity spread",
        columns=("layout", "uniformity_mean", "uniformity_std"),
    )
    for side_by_side in (True, False):
        rng = np.random.default_rng(seed)
        uniformities = []
        for _ in range(instances):
            ppuf = Ppuf.create(n, l, rng, tech=tech, side_by_side=side_by_side)
            space = ppuf.challenge_space()
            challenge_list = [space.random(rng) for _ in range(challenges)]
            uniformities.append(float(ppuf.response_bits(challenge_list).mean()))
        uniformities = np.asarray(uniformities)
        table.add_row(
            layout="side_by_side" if side_by_side else "separate",
            uniformity_mean=float(uniformities.mean()),
            uniformity_std=float(uniformities.std(ddof=1)),
        )
    table.notes.append(
        "separate placement lets die-level gradients bias one network, "
        "pushing per-instance uniformity away from 0.5"
    )
    return table


def comparator_noise_ablation(
    *,
    n: int = 16,
    l: int = 4,
    challenges: int = 30,
    noise_sigmas=(0.0, 5e-9, 2e-8),
    votes=(1, 7),
    seed: int = 2016,
) -> ExperimentTable:
    """Noisy-response error rate vs noise level and majority votes."""
    rng = np.random.default_rng(seed)
    ppuf = Ppuf.create(n, l, rng)
    space = ppuf.challenge_space()
    challenge_list = [space.random(rng) for _ in range(challenges)]
    reference = ppuf.response_bits(challenge_list)

    table = ExperimentTable(
        title="Comparator-noise ablation: response error rate",
        columns=("noise_sigma_A", "votes", "error_rate"),
    )
    for sigma in noise_sigmas:
        noisy = dataclasses.replace(ppuf, comparator=CurrentComparator(noise_sigma=sigma))
        for vote_count in votes:
            errors = 0
            for challenge, expected in zip(challenge_list, reference):
                bit = noisy.noisy_response(challenge, rng, votes=vote_count)
                errors += bit != expected
            table.add_row(
                noise_sigma_A=sigma,
                votes=vote_count,
                error_rate=errors / len(challenge_list),
            )
    table.notes.append("majority voting suppresses noise-induced flips")
    return table


def solver_consistency_ablation(
    *,
    n: int = 14,
    l: int = 3,
    challenges: int = 10,
    seed: int = 2016,
) -> ExperimentTable:
    """Responses must not depend on the max-flow algorithm."""
    rng = np.random.default_rng(seed)
    ppuf = Ppuf.create(n, l, rng)
    space = ppuf.challenge_space()
    challenge_list = [space.random(rng) for _ in range(challenges)]
    table = ExperimentTable(
        title="Solver-consistency ablation",
        columns=("algorithm", "agreement_with_dinic"),
    )
    reference = [
        network_current(ppuf.network_a, c, "maxflow", algorithm=DEFAULT_ALGORITHM)
        for c in challenge_list
    ]
    for algorithm in (
        "edmonds_karp",
        "push_relabel",
        "capacity_scaling",
        "highest_label",
    ):
        values = [
            network_current(ppuf.network_a, c, "maxflow", algorithm=algorithm)
            for c in challenge_list
        ]
        agree = np.allclose(values, reference, rtol=1e-9)
        table.add_row(algorithm=algorithm, agreement_with_dinic=bool(agree))
    return table


def run(**kwargs):
    """All three ablations (keyword arguments forwarded to each)."""
    return (
        placement_ablation(),
        comparator_noise_ablation(),
        solver_consistency_ablation(),
    )


def main():
    for table in run():
        table.show()


if __name__ == "__main__":
    main()
