#!/usr/bin/env python
"""Visualizing the BSP execution: virtual-time Gantt timelines.

Renders per-stream activity for a 3-GPU DOBFS run twice — with the
strict BSP barrier and with Gunrock's compute/communication overlap
(Section III-B) — so you can *see* the broadcast transfers sliding under
the next iteration's computation, and read off each GPU's busy fraction.

Run:  python examples/timeline_visualization.py
"""

from repro import datasets
from repro.analysis.timeline import busy_fraction, render_timeline
from repro.core.enactor import Enactor
from repro.obs import Tracer
from repro.primitives.dobfs import DOBFSIteration, DOBFSProblem
from repro.sim.machine import Machine

DATASET = "rmat_n21_256"


def run(overlap: bool) -> None:
    machine = Machine(3, scale=datasets.machine_scale(DATASET))
    tracer = Tracer()
    problem = DOBFSProblem(datasets.load(DATASET), machine)
    metrics = Enactor(
        problem, DOBFSIteration, overlap_communication=overlap,
        tracer=tracer,
    ).enact(src=1)
    mode = "overlap" if overlap else "strict barrier"
    print(f"--- DOBFS on {DATASET}, 3 GPUs, {mode}: "
          f"{metrics.elapsed * 1e3:.3f} ms ---")
    print(render_timeline(tracer, width=96))
    fracs = busy_fraction(tracer)
    comm = busy_fraction(tracer, "comm")
    print("busy fractions: " + "  ".join(
        f"gpu{g}: compute {fracs[g]:.0%} / comm {comm[g]:.0%}"
        for g in sorted(fracs)
    ))
    print()


def main() -> None:
    run(overlap=False)
    run(overlap=True)
    print("Legend: '#' busy most of the column, '+' partially, '.' idle.\n"
          "With overlap the comm rows extend under the next compute burst\n"
          "instead of serializing before the barrier.")


if __name__ == "__main__":
    main()
