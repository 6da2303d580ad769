"""``insitu``: two proxy simulations rendered through Strawman every cycle.

Each cycle advances a Kripke-like uniform grid (8 ranks x 12^3 cells, drawn
at 192^2) and a LULESH-like hex mesh (4 ranks x 6^3 cells, drawn at 128^2),
publishes every rank's blueprint description, and draws each plot as its own
``Strawman.execute``: ray-traced surface, rasterized surface and structured
volume of the grid, and the tet volume of the hex mesh.  Ranks sit on a
``BlockDecomposition`` layout.  This is the paper's in situ path: rendering
is nearly all of a frame and compositing a few percent.

The simulations restart from the seed every ``EPISODE_CYCLES`` cycles, so the
measured frames repeat one fixed sequence of inputs however many cycles a
run fits.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import stats
from perfbench.outcome import Outcome, layer_metrics, peak_rss_mb
from perfbench.spans import Recorder, patched
from repro.compositing import Compositor
from repro.dpp.instrument import get_instrumentation, reset_instrumentation
from repro.insitu import strawman as strawman_module
from repro.geometry.aabb import aabb_union
from repro.geometry.tetra import hex_to_tets
from repro.geometry.transforms import Camera
from repro.geometry.triangles import external_faces
from repro.insitu import ConduitNode, Strawman, StrawmanOptions
from repro.insitu.blueprint import node_to_mesh
from repro.rendering import Rasterizer, RayTracer, StructuredVolumeRenderer, UnstructuredVolumeRenderer
from repro.rendering.raytracer.traversal import brute_force_closest_hit
from repro.runtime.decomposition import BlockDecomposition
from repro.simulations import KripkeProxy, LuleshProxy
from repro.simulations.base import SimulationProxy
from repro.util.rng import default_rng, derive_seed

KRIPKE_RANKS, KRIPKE_CELLS, KRIPKE_SIZE = 8, 12, 192
LULESH_RANKS, LULESH_CELLS, LULESH_SIZE = 4, 6, 128
EPISODE_CYCLES = 3
#: Image edge of the warm-up cycle that set-up draws.
WARMUP_SIZE = 32
#: Plot name -> (simulation, renderer); one ``execute`` each per cycle.
PLOTS = {
    "raytrace": ("kripke", "raytrace"),
    "raster": ("kripke", "raster"),
    "volume": ("kripke", "volume"),
    "tet": ("lulesh", "volume"),
}
_VARIABLE = {"kripke": "phi_point", "lulesh": "e"}
_MODE = {"raytrace": "depth", "raster": "depth", "volume": "over", "tet": "over"}
_ALGORITHM = StrawmanOptions().compositing_algorithm
#: Rays the brute-force intersector checks on the sampled rank.
CHECK_RAYS = 256
#: Sampled pixels on which raster coverage must agree with brute-force hits.
RASTER_AGREEMENT = 0.95


def _kripke_node(simulation: KripkeProxy, offset: np.ndarray) -> ConduitNode:
    grid = simulation.mesh()
    node = ConduitNode()
    node["state/cycle"] = simulation.cycle
    node["coords/type"] = "uniform"
    node["coords/dims"] = np.asarray(grid.dims, dtype=np.int64)
    node["coords/origin"] = np.asarray(grid.origin, dtype=np.float64) + offset
    node["coords/spacing"] = np.asarray(grid.spacing, dtype=np.float64)
    node["topology/type"] = "structured"
    node["fields/phi_point/association"] = "vertex"
    node.fetch("fields/phi_point/values").set_external(grid.point_fields["phi_point"])
    return node


def _lulesh_node(simulation: LuleshProxy, offset: np.ndarray) -> ConduitNode:
    mesh = simulation.mesh()
    points = mesh.points() + offset
    node = ConduitNode()
    node["state/cycle"] = simulation.cycle
    node["coords/type"] = "explicit"
    for axis, name in enumerate("xyz"):
        node.fetch(f"coords/values/{name}").set_external(np.ascontiguousarray(points[:, axis]))
    node["topology/type"] = "unstructured"
    node["topology/elements/shape"] = "hexs"
    node.fetch("topology/elements/connectivity").set_external(mesh.connectivity)
    node["fields/e/association"] = "element"
    node.fetch("fields/e/values").set_external(mesh.cell_fields["e"])
    return node


def _draw(variable: str, renderer: str) -> ConduitNode:
    actions = ConduitNode()
    add = actions.append()
    add["action"] = "AddPlot"
    add["var"] = variable
    add["renderer"] = renderer
    draw = actions.append()
    draw["action"] = "DrawPlots"
    return actions


@dataclass
class _Simulation:
    """One proxy application: its ranks, their layout offsets, and a Strawman."""

    name: str
    size: int
    ranks: list
    offsets: list[np.ndarray]
    strawman: Strawman
    describe: object
    nodes: list[ConduitNode] = field(default_factory=list)

    def publish(self) -> None:
        self.nodes = [self.describe(rank, offset) for rank, offset in zip(self.ranks, self.offsets)]
        for rank, node in enumerate(self.nodes):
            self.strawman.publish(node, rank=rank)


@dataclass
class Frame:
    """One plot's ``execute``: its record, wall seconds, and the rank descriptions it drew."""

    plot: str
    record: object
    seconds: float
    simulation: str
    nodes: list[ConduitNode]
    size: int


@dataclass
class State:
    seed: int
    simulations: dict[str, _Simulation] = field(default_factory=dict)
    cycle: int = 0


def _open(seed: int, kripke_size: int, lulesh_size: int) -> dict[str, _Simulation]:
    kripke_layout = BlockDecomposition(KRIPKE_RANKS, KRIPKE_CELLS, cell_size=1.0 / KRIPKE_CELLS)
    lulesh_layout = BlockDecomposition(LULESH_RANKS, LULESH_CELLS, cell_size=1.125 / LULESH_CELLS)
    simulations = {}
    for name, layout, size, make, describe in (
        ("kripke", kripke_layout, kripke_size, lambda r: KripkeProxy(KRIPKE_CELLS, seed=r), _kripke_node),
        ("lulesh", lulesh_layout, lulesh_size, lambda r: LuleshProxy(LULESH_CELLS, seed=r), _lulesh_node),
    ):
        strawman = Strawman()
        strawman.open(StrawmanOptions(num_ranks=layout.num_tasks, default_width=size, default_height=size))
        ranks = [make(derive_seed(seed, "perfbench-insitu", name, rank)) for rank in range(layout.num_tasks)]
        offsets = [layout.block_bounds(rank).low for rank in range(layout.num_tasks)]
        simulations[name] = _Simulation(name, size, ranks, offsets, strawman, describe)
    return simulations


def _advance_and_publish(simulations: dict[str, _Simulation]) -> None:
    for simulation in simulations.values():
        for rank in simulation.ranks:
            rank.advance(1)
        simulation.publish()


def setup(seed: int, workdir: Path) -> State:
    """Build the simulations and draw one small warm-up cycle of every plot."""
    warmup = _open(seed, WARMUP_SIZE, WARMUP_SIZE)
    _advance_and_publish(warmup)
    for plot, (simulation, renderer) in PLOTS.items():
        warmup[simulation].strawman.execute(_draw(_VARIABLE[simulation], renderer))
    return State(seed=seed, simulations=_open(seed, KRIPKE_SIZE, LULESH_SIZE))


def close(state: State) -> None:
    for simulation in state.simulations.values():
        simulation.strawman.close()


def restart(state: State) -> None:
    """Start the simulations over from the seed, collecting the last episode's garbage first."""
    close(state)
    state.simulations = {}
    gc.collect()
    state.simulations = _open(state.seed, KRIPKE_SIZE, LULESH_SIZE)
    state.cycle = 0


def cycle(state: State) -> dict[str, object]:
    """One in situ cycle: advance, publish, and one ``execute`` per plot.

    Returns each plot's :class:`Frame`.
    """
    state.cycle += 1
    _advance_and_publish(state.simulations)
    frames = {}
    for plot, (name, renderer) in PLOTS.items():
        simulation = state.simulations[name]
        start = time.perf_counter()
        record = simulation.strawman.execute(_draw(_VARIABLE[name], renderer))
        seconds = time.perf_counter() - start
        frames[plot] = Frame(plot, record, seconds, name, simulation.nodes, simulation.size)
    return frames


# -- output checks --------------------------------------------------------------------


def _camera_and_meshes(frame: Frame):
    meshes = [node_to_mesh(node) for node in frame.nodes]
    camera = Camera.framing_bounds(aabb_union([mesh.bounds for mesh in meshes]), frame.size, frame.size)
    return camera, meshes


def _close(a: np.ndarray, b: np.ndarray, tolerance: float = 1e-10) -> bool:
    finite = np.isfinite(a)
    if not np.array_equal(finite, np.isfinite(b)):
        return False
    return bool(np.all(np.abs(a[finite] - b[finite]) <= tolerance))


def check_composite(frame: Frame) -> bool:
    """The frame's composite equals the dense reference composite of its rank images."""
    camera, meshes = _camera_and_meshes(frame)
    visibility = [camera.visibility_distance(mesh.bounds) for mesh in meshes]
    reference = Compositor(_ALGORITHM).composite(
        [result.framebuffer for result in frame.record.results],
        mode=_MODE[frame.plot],
        visibility_order=visibility,
        engine="reference",
    ).framebuffer
    produced = frame.record.composites[0].framebuffer
    return _close(produced.rgba, reference.rgba) and _close(produced.depth, reference.depth)


def check_rank(frame: Frame, rank: int, seed: int) -> bool:
    """One rank's image against the renderer's in-tree oracle."""
    camera, meshes = _camera_and_meshes(frame)
    mesh = meshes[rank]
    image = frame.record.results[rank].framebuffer
    variable = _VARIABLE[frame.simulation]
    plot = frame.plot
    if plot in ("raytrace", "raster"):
        surface = external_faces(Strawman._as_hex_mesh(mesh), scalar_field=variable)
        rng = default_rng(seed, "perfbench-insitu-check", plot)
        pixels = rng.choice(camera.width * camera.height, size=CHECK_RAYS, replace=False)
        hits = brute_force_closest_hit(surface, *camera.generate_rays(pixels))
        depth = image.depth.reshape(-1)[pixels]
        covered = np.isfinite(depth)
        if plot == "raster":
            # The rasterizer numbers image rows bottom-up and the ray casters
            # top-down, so coverage is compared in both row orders.
            flipped = np.isfinite(image.depth[::-1].reshape(-1)[pixels])
            agreement = max(np.mean(covered == hits.hit_mask), np.mean(flipped == hits.hit_mask))
            return float(agreement) >= RASTER_AGREEMENT
        return bool(
            np.array_equal(covered, hits.hit_mask)
            and np.allclose(depth[covered], hits.t[hits.hit_mask], rtol=1e-9, atol=0.0)
        )
    if plot == "volume":
        renderer = StructuredVolumeRenderer(mesh, variable)
    else:
        hexes = Strawman._as_hex_mesh(mesh)
        hexes.add_point_field(variable + "_point", Strawman._point_values(hexes, variable))
        renderer = UnstructuredVolumeRenderer(hex_to_tets(hexes), variable + "_point")
    reference = renderer.render_reference(camera).framebuffer
    return _close(image.rgba, reference.rgba) and _close(image.depth, reference.depth)


def _check_frames(frames: dict[str, Frame]) -> int:
    """Check one cycle's composites; returns the number that failed."""
    return sum(not check_composite(frame) for frame in frames.values())


def _check_ranks(state: State, frames: dict[str, Frame]) -> int:
    """Check one seeded rank of each plot against its oracle; returns the number that failed."""
    rng = default_rng(state.seed, "perfbench-insitu-rank")
    ranks = [int(rng.integers(len(frame.nodes))) for frame in frames.values()]
    return sum(not check_rank(frame, rank, state.seed) for frame, rank in zip(frames.values(), ranks))


def _more_episodes(cycle_seconds: list[float], seconds: float) -> bool:
    """Whether to cycle on: mid-episode, or when one more episode ends closer to ``seconds``."""
    if not cycle_seconds or len(cycle_seconds) % EPISODE_CYCLES:
        return True
    episode = sum(cycle_seconds) / (len(cycle_seconds) // EPISODE_CYCLES)
    return sum(cycle_seconds) + episode / 2 < seconds


def measure(state: State, seconds: float) -> Outcome:
    """The whole number of episodes whose cycle time comes closest to ``seconds`` (at least one)."""
    cycle_seconds: list[float] = []
    attempted = failed = 0
    first: dict[str, Frame] = {}
    while _more_episodes(cycle_seconds, seconds):
        if state.cycle == EPISODE_CYCLES:
            restart(state)
        start = time.perf_counter()
        frames = cycle(state)
        cycle_seconds.append(time.perf_counter() - start)
        attempted += len(frames)
        failed += _check_frames(frames)
        first = first or frames
        if len(cycle_seconds) == EPISODE_CYCLES:
            # The high-water mark of one episode; later episodes reuse freed memory
            # unevenly, so including them would tie the peak to the run's length.
            peak = peak_rss_mb()
    failed += _check_ranks(state, first)
    return Outcome(
        metrics={
            "p50_s": stats.median(cycle_seconds),
            "rate_per_s": len(PLOTS) / stats.median(cycle_seconds),
            "peak_rss_mb": peak,
        },
        attempted=attempted,
        failed=failed,
        samples=len(cycle_seconds),
    )


def _span_targets() -> list:
    return [
        (SimulationProxy, "advance", "simulation.advance"),
        (Strawman, "publish", "insitu.publish"),
        (Strawman, "execute", "insitu.execute"),
        (strawman_module, "node_to_mesh", "insitu.node_to_mesh"),
        (strawman_module, "external_faces", "geometry.external_faces"),
        (strawman_module, "hex_to_tets", "geometry.hex_to_tets"),
        (RayTracer, "render", "rendering.raytracer.render"),
        (Rasterizer, "render", "rendering.rasterizer.render"),
        (StructuredVolumeRenderer, "render", "rendering.volume.structured"),
        (UnstructuredVolumeRenderer, "render", "rendering.volume.tet"),
        (Compositor, "composite", lambda self, framebuffers, mode="depth", *a, **k: f"compositing.{mode}"),
    ]


def _episode(state: State) -> list[dict]:
    return [cycle(state) for _ in range(EPISODE_CYCLES)]


def traced(state: State, recorder: Recorder) -> Outcome:
    """One episode untraced, then the same episode with spans at every layer boundary."""
    restart(state)
    start = time.perf_counter()
    _episode(state)
    untraced_wall = time.perf_counter() - start
    restart(state)
    reset_instrumentation()
    with patched(recorder, _span_targets()), recorder.span("trace.root"):
        episode = _episode(state)
    dpp = get_instrumentation().snapshot()
    attempted = failed = 0
    for frames in episode:
        attempted += len(frames)
        failed += _check_frames(frames)

    metrics = layer_metrics(recorder, untraced_wall)
    self_s = recorder.self_times()
    for *_, name in _span_targets():
        if isinstance(name, str) and name != "insitu.execute":
            metrics[name + "_s"] = self_s.get(name, 0.0)
    for mode in ("depth", "over"):
        metrics[f"compositing.{mode}_s"] = self_s.get(f"compositing.{mode}", 0.0)
    metrics["insitu.unattributed_s"] = self_s.get("insitu.execute", 0.0)
    for plot in PLOTS:
        metrics[f"insitu.{plot}_frame_s"] = stats.median([frames[plot].seconds for frames in episode])

    phases: dict[str, dict[str, float]] = {}
    rays = 0
    for frames in episode:
        for plot, frame in frames.items():
            for result in frame.record.results:
                totals = phases.setdefault(plot, {})
                for phase, seconds in result.phase_seconds.items():
                    totals[phase] = totals.get(phase, 0.0) + seconds
                if plot == "raytrace":
                    rays += result.framebuffer.width * result.framebuffer.height
    for phase in ("bvh_build", "trace", "shade"):
        metrics[f"rendering.raytracer.{phase}_s"] = phases["raytrace"].get(phase, 0.0)
    metrics["rendering.raytracer.mrays_per_s"] = rays / metrics["rendering.raytracer.render_s"] / 1e6
    metrics["rendering.volume.tet_sampling_s"] = phases["tet"].get("sampling", 0.0)
    metrics["rendering.volume.tet_compositing_s"] = phases["tet"].get("compositing", 0.0)
    for key in ("invocations", "elements", "bytes_moved"):
        metrics[f"dpp.{key}"] = sum(scope[key] for scope in dpp.values())
    return Outcome(metrics=metrics, attempted=attempted, failed=failed, samples=len(episode))
