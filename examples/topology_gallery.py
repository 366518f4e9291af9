#!/usr/bin/env python3
"""Topology gallery: the complexes behind the paper's figures, in numbers.

Regenerates the combinatorial content of Figures 1, 4, 6 and 7 — the
standard chromatic subdivision, the contention complex, concurrency
maps and affine tasks — together with the homological profile that the
paper's concluding remarks discuss (link-connectivity of ``R_{t-res}``
versus ``R_{k-OF}``).

Run:  python examples/topology_gallery.py
"""

from repro import (
    agreement_function_of,
    chr_complex,
    contention_complex,
    figure5b_adversary,
    k_concurrency_alpha,
    r_affine,
    r_k_obstruction_free,
    r_t_resilient,
)
from repro.analysis import banner, complex_census, render_mapping, render_table
from repro.core import concurrency_census
from repro.topology import fubini_number
from repro.topology.connectivity import homology_summary


def main() -> None:
    print(banner("Figure 1 — the standard chromatic subdivision"))
    rows = []
    for depth in (1, 2):
        census = complex_census(chr_complex(3, depth))
        rows.append([f"Chr^{depth} s", census["vertices"], census["facets"]])
    rows.append(["Fubini(3), Fubini(3)^2", "-", f"{fubini_number(3)}, {fubini_number(3)**2}"])
    print(render_table(["complex", "vertices", "facets"], rows))

    print()
    print(banner("Figure 4c — the 2-contention complex"))
    cont = contention_complex(3)
    print(render_mapping("Cont2 census", complex_census(cont)))

    print()
    print(banner("Figure 6 — concurrency maps"))
    chr1 = chr_complex(3, 1)
    for name, alpha in [
        ("1-obstruction-free", k_concurrency_alpha(3, 1)),
        ("figure-5b", agreement_function_of(figure5b_adversary())),
    ]:
        print(
            render_mapping(
                f"Conc levels for {name}", concurrency_census(chr1, alpha)
            )
        )

    print()
    print(banner("Figures 1b & 7 — affine tasks and their topology"))
    tasks = [
        r_k_obstruction_free(3, 1),
        r_t_resilient(3, 1),
        r_affine(k_concurrency_alpha(3, 1)),
        r_affine(agreement_function_of(figure5b_adversary(), name="fig5b")),
    ]
    rows = []
    for task in tasks:
        homology = homology_summary(task.complex.complex)
        rows.append(
            [
                task.name,
                len(task.complex.facets),
                homology["euler_characteristic"],
                homology["connected"],
                homology["link_connected"],
            ]
        )
    print(
        render_table(
            ["task", "facets", "euler", "connected", "link-connected"],
            rows,
        )
    )
    print(
        "\nNote the Section-8 remark made concrete: R_{1-res} is"
        " link-connected, R_{1-OF} is not."
    )


if __name__ == "__main__":
    main()
