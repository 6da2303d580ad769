"""In situ rendering of the three proxy simulations through the Strawman interface.

Run with ``python examples/insitu_proxy_simulation.py``.  Each proxy app
(LULESH-, Kripke-, and CloverLeaf3D-like) is advanced for a few cycles; every
cycle its state is described with the mesh blueprint, published to Strawman,
and rendered, exactly following the integration pattern of Chapter IV.  The
section markers (``# [lulesh-data]`` etc.) delimit the integration code whose
line counts the Table 10 benchmark reports.
"""

from __future__ import annotations

import numpy as np

from repro.insitu import ConduitNode, Strawman, StrawmanOptions
from repro.simulations import CloverleafProxy, KripkeProxy, LuleshProxy

CYCLES = 3
IMAGE_SIZE = 160


def describe_lulesh(simulation: LuleshProxy) -> ConduitNode:
    """Describe the LULESH-like state (explicit coordinates, hex topology, element energy)."""
    mesh = simulation.mesh()
    points = mesh.points()
    # [lulesh-data]
    data = ConduitNode()
    data["state/time"] = simulation.time
    data["state/cycle"] = simulation.cycle
    data["coords/type"] = "explicit"
    data.fetch("coords/values/x").set_external(points[:, 0])
    data.fetch("coords/values/y").set_external(points[:, 1])
    data.fetch("coords/values/z").set_external(points[:, 2])
    data["topology/type"] = "unstructured"
    data["topology/elements/shape"] = "hexs"
    data.fetch("topology/elements/connectivity").set_external(mesh.connectivity)
    data["fields/e/association"] = "element"
    data.fetch("fields/e/values").set_external(mesh.cell_fields["e"])
    # [end]
    return data


def describe_kripke(simulation: KripkeProxy) -> ConduitNode:
    """Describe the Kripke-like state (uniform coordinates, vertex scalar flux)."""
    grid = simulation.mesh()
    # [kripke-data]
    data = ConduitNode()
    data["state/cycle"] = simulation.cycle
    data["coords/type"] = "uniform"
    data["coords/dims"] = np.asarray(grid.dims, dtype=np.int64)
    data["coords/origin"] = np.asarray(grid.origin)
    data["coords/spacing"] = np.asarray(grid.spacing)
    data["topology/type"] = "structured"
    data["fields/phi_point/association"] = "vertex"
    data.fetch("fields/phi_point/values").set_external(grid.point_fields["phi_point"])
    # [end]
    return data


def describe_cloverleaf(simulation: CloverleafProxy) -> ConduitNode:
    """Describe the CloverLeaf3D-like state (rectilinear coordinates, vertex density)."""
    grid = simulation.mesh()
    # [cloverleaf-data]
    data = ConduitNode()
    data["state/cycle"] = simulation.cycle
    data["coords/type"] = "rectilinear"
    data.fetch("coords/values/x").set_external(grid.x)
    data.fetch("coords/values/y").set_external(grid.y)
    data.fetch("coords/values/z").set_external(grid.z)
    data["topology/type"] = "structured"
    data["fields/density_point/association"] = "vertex"
    data.fetch("fields/density_point/values").set_external(grid.point_fields["density_point"])
    # [end]
    return data


def build_actions(variable: str, renderer: str, cycle: int, prefix: str) -> ConduitNode:
    """The AddPlot / DrawPlots / SaveImage action list of the paper's listings."""
    # [action-description]
    actions = ConduitNode()
    add = actions.append()
    add["action"] = "AddPlot"
    add["var"] = variable
    add["renderer"] = renderer
    draw = actions.append()
    draw["action"] = "DrawPlots"
    save = actions.append()
    save["action"] = "SaveImage"
    save["fileName"] = f"{prefix}_{cycle:04d}"
    save["format"] = "ppm"
    save["width"] = IMAGE_SIZE
    save["height"] = IMAGE_SIZE
    # [end]
    return actions


def run_in_situ(name: str, simulation, describe, renderer: str) -> None:
    """Advance a proxy and render every cycle through Strawman."""
    records = []  # close() releases Strawman's own history
    # [strawman-api]
    strawman = Strawman()
    options = StrawmanOptions(num_ranks=1, output_directory="insitu_output")
    strawman.open(options)
    for _ in range(CYCLES):
        simulation.advance(1)
        strawman.publish(describe(simulation))
        records.append(strawman.execute(build_actions(simulation.primary_field, renderer, simulation.cycle, name)))
    strawman.close()
    # [end]
    print(
        f"{name:<11} {CYCLES} cycles: "
        f"sim {simulation.total_step_seconds:.3f}s, "
        f"vis {sum(r.total_seconds for r in records):.3f}s, "
        f"compositing {sum(r.bytes_exchanged for r in records) / 1e6:.2f} MB exchanged, "
        f"last image {records[-1].saved_files[-1]}"
    )


def main() -> None:
    run_in_situ("lulesh", LuleshProxy(10, seed=1), describe_lulesh, renderer="raytrace")
    run_in_situ("kripke", KripkeProxy(12, seed=2), describe_kripke, renderer="volume")
    run_in_situ("cloverleaf", CloverleafProxy(12, seed=3), describe_cloverleaf, renderer="raster")


if __name__ == "__main__":
    main()
