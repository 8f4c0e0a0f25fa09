"""The three benchmark workloads: inputs from a seed, set-up, closed loop, checks.

Every workload runs in one process as a closed loop with one client:
the next unit of work (a ``fit`` call, or one ``eegalign eval`` pass)
starts only after the previous one has finished. Inputs are generated
from the workload seed; the model config is the library default (whose
trainer seed is 0) with the workload's geometry, so the seed varies the
data the program sees, not the program.

Why these workloads:

* ``train-quickstart``: ``fit`` at the README quick-start geometry and
  the default config. Arrays are large, so numpy arithmetic dominates:
  the dynamic filter, the backward pass through the frozen ViT and Adam.
* ``train-desk``: ``fit`` at the acceptance criterion-7 geometry and
  config. Steps are about 4x cheaper, so the Python cost of each tape
  node dominates; node-count, gating and fused-op changes show here.
* ``retrieve``: the ``eegalign eval`` path over a large query set,
  forward only. Dead eval-time tape and I/O show here; patch-embed
  caching and VJP gating are bypassed, so for those the prediction is no
  change.

On the train workloads the held-out probe mAP after training lands
well above the untrained model's (0.03-0.1) and below 1.0, mostly at
0.85-0.95, so a loss of learning shows. It varies from seed to seed (a
desk seed now and then settles near 0.6), so it is tracked per layer and
checked against the untrained reference rather than bounded.
"""
from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from eegalign import data as datamod
from eegalign import metrics, trainer
from eegalign.backbone import ProjectionHead, VisionBackbone
from eegalign.config import RunConfig, default_config
from eegalign.dynfilter import FilterGenerator
from eegalign.errors import ContractError
from eegalign.fusion import CrossAttentionFusion
from eegalign import model as modelmod
from eegalign.model import AlignmentModel
from eegalign.tensor import Tensor

import spans
from reference import NOMINAL_UNIT_MS, Reference

SETUP_REPEATS = 15
LOSS_KEYS = ("l_clip", "l_soft", "l_rel", "l_total")
# the retrieve passes whose spans the traced run records; the passes in
# between run untraced, so the traced run measures its own overhead
TRACED_PASSES = (1, 3)


@dataclasses.dataclass(frozen=True)
class TrainSpec:
    channels: int
    timesteps: int
    height: int
    noise: float
    train_classes: int
    probe_classes: int
    per_class: int
    val_samples: int
    epochs: int
    encoder_dim: int | None = None
    backbone_dim: int | None = None

    def config(self) -> RunConfig:
        cfg = default_config()
        if self.encoder_dim is not None:
            cfg.encoder.dim = self.encoder_dim
        if self.backbone_dim is not None:
            cfg.backbone.dim = self.backbone_dim
        cfg.trainer.epochs = self.epochs
        return cfg


@dataclasses.dataclass(frozen=True)
class RetrieveSpec:
    channels: int
    timesteps: int
    height: int
    noise: float
    classes: int
    per_class: int

    def config(self) -> RunConfig:
        return default_config()


WORKLOADS = {
    # 17 ch x 250 t, 32x32 images, default config; 416 training pairs per
    # epoch (13 steps of 32), probe of 40 held-out classes x 8 queries
    "train-quickstart": TrainSpec(channels=17, timesteps=250, height=32, noise=0.1,
                                  train_classes=60, probe_classes=40, per_class=8,
                                  val_samples=64, epochs=8),
    # criterion 7: 8 ch x 50 t, 16x16 images, encoder dim 64, ViT dim 32;
    # 736 training pairs per epoch (23 steps), probe of 60 classes x 8
    "train-desk": TrainSpec(channels=8, timesteps=50, height=16, noise=0.2,
                            train_classes=100, probe_classes=60, per_class=8,
                            val_samples=64, epochs=6, encoder_dim=64, backbone_dim=32),
    # quick-start geometry, 50 held-out classes x 20 queries = 1000 pairs
    "retrieve": RetrieveSpec(channels=17, timesteps=250, height=32, noise=0.1,
                             classes=50, per_class=20),
}

# the same workloads shrunk to seconds, for the benchmark's self-check
TOY = {
    "train-quickstart": dataclasses.replace(WORKLOADS["train-quickstart"], train_classes=6,
                                            probe_classes=4, per_class=4, val_samples=8, epochs=2),
    "train-desk": dataclasses.replace(WORKLOADS["train-desk"], train_classes=6,
                                      probe_classes=4, per_class=4, val_samples=8, epochs=2),
    "retrieve": dataclasses.replace(WORKLOADS["retrieve"], classes=4, per_class=4),
}


class Checks:
    """Output checks, counted as operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        """Record an exception escaping the program as one failed operation."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.fail(f"{what} raised {sys.exc_info()[1]!r}")


class TimeUp(Exception):
    """Raised from inside a later ``fit`` once the run's time is spent."""


@dataclasses.dataclass
class Outcome:
    metrics: dict[str, float]     # end-to-end
    info: dict                    # sample counts and run-wide figures, never gated
    quality: dict[str, float]     # retrieval quality, recorded and never gated
    layers: dict[str, float]      # per-layer counters (tape walks only in a traced run)
    windows: list                 # the raw timings behind the metrics
    setup: Durations              # every set-up's timings


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def digest_of(ckpt: trainer.Checkpoint) -> str:
    return trainer.parameter_digest(ckpt.build_model().parameters())


def relevance_map(sim: np.ndarray, class_ids: np.ndarray) -> float:
    """mAP where every query's relevant candidates are its whole class."""
    relevance = class_ids[:, None] == class_ids[None, :]
    return metrics.mean_average_precision(sim, relevance)


def similarity(model: AlignmentModel, split: datamod.SplitArrays, batch_size: int) -> np.ndarray:
    z_e, z_i = trainer.embed_split(model, split, batch_size)
    return z_e @ z_i.T


def invariant_error(report: metrics.RetrievalReport) -> str | None:
    try:
        report.check_invariants()
    except ContractError as e:
        return str(e)
    return None


def retrieval_quality(model: AlignmentModel, split: datamod.SplitArrays, cfg: RunConfig,
                      checks: Checks) -> float:
    """Relevance-mask mAP on ``split``, checking the report's invariants."""
    sim = similarity(model, split, cfg.trainer.batch_size)
    error = invariant_error(metrics.build_report(sim, cfg.eval.ks))
    checks.check(error is None, f"retrieval report invariants: {error}")
    return relevance_map(sim, split.class_ids)


def _manifest(spec, splits: dict, n_classes: int, seed: int) -> datamod.DatasetManifest:
    return datamod.DatasetManifest(
        splits={name: f"{name}.bin" for name in splits},
        channels=spec.channels, timesteps=spec.timesteps,
        height=spec.height, width=spec.height, n_classes=n_classes, seed=seed,
    )


def setup_train(spec: TrainSpec, seed: int, directory: Path) -> dict[str, datamod.SplitArrays]:
    """The gen-data -> train input path: generate, split, save, load back."""
    n_classes = spec.train_classes + spec.probe_classes
    pairs = datamod.generate_synthetic(seed, n_classes, spec.per_class, spec.channels,
                                       spec.timesteps, spec.height, spec.noise)
    rng = np.random.default_rng([seed, 1])
    probe_classes = rng.choice(n_classes, size=spec.probe_classes, replace=False)
    in_probe = np.isin(pairs.class_ids, probe_classes)
    rest = rng.permutation(np.flatnonzero(~in_probe))
    splits = {
        "train": pairs.take(np.sort(rest[spec.val_samples:])),
        "val": pairs.take(np.sort(rest[:spec.val_samples])),
        "probe": pairs.take(np.flatnonzero(in_probe)),
    }
    datamod.save_dataset(_manifest(spec, splits, n_classes, seed), splits, str(directory))
    manifest = datamod.load_dataset(str(directory))
    return {name: datamod.load_split(manifest, name) for name in splits}


def clocks() -> tuple[float, float]:
    """(wall, CPU) seconds: the perf counter and this process's CPU time."""
    return time.perf_counter(), time.process_time()


@dataclasses.dataclass
class Durations:
    """Wall and CPU milliseconds of timed pieces of work, and for each the
    mean time of the reference units run right after it."""

    wall: list[float] = dataclasses.field(default_factory=list)
    cpu: list[float] = dataclasses.field(default_factory=list)
    ref: list[float] = dataclasses.field(default_factory=list)

    def add(self, start: tuple[float, float], end: tuple[float, float],
            reference: Reference) -> None:
        self.wall.append(1000.0 * (end[0] - start[0]))
        self.cpu.append(1000.0 * (end[1] - start[1]))
        self.ref.append(reference.follow(self.cpu[-1]))

    def costs(self) -> list[float]:
        """Each piece's CPU time in reference units."""
        return [cpu / ref for cpu, ref in zip(self.cpu, self.ref)]


def timed_setups(setup, spec, seed: int, workdir: Path, reference: Reference):
    """Set up SETUP_REPEATS times; keep the last state and every duration."""
    durations = Durations()
    for rep in range(SETUP_REPEATS):
        directory = workdir / f"setup{rep}"
        start = clocks()
        state = setup(spec, seed, directory)
        durations.add(start, clocks(), reference)
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)
    return state, durations


class TapeCounters:
    """Tape size per train step (walked from the loss) and per eval batch.

    The graph of a step is fixed by the config, so a few walks suffice;
    more would only add to the traced run's overhead.
    """

    WALKS = 3

    def __init__(self, tracer: spans.Tracer):
        self.tracer = tracer
        self.step_nodes: list[int] = []
        self.step_mib: list[float] = []
        self.eval_mib: list[float] = []

    def before_backward(self, args) -> None:
        if len(self.step_nodes) < self.WALKS:
            nodes, mib = spans.tape_stats(args[0])
            self.step_nodes.append(nodes)
            self.step_mib.append(mib)

    def after_encode_images(self, args, result) -> None:
        if len(self.eval_mib) < self.WALKS and "trainer.embed_split" in self.tracer.open_names():
            self.eval_mib.append(spans.tape_stats(result)[1])

    def values(self) -> dict[str, float]:
        def median(xs):
            return float(statistics.median(xs)) if xs else 0.0
        return {
            "tensor.nodes_per_step": median(self.step_nodes),
            "tensor.tape_mib_per_step": median(self.step_mib),
            "tensor.eval_tape_mib": median(self.eval_mib),
        }


def install_tracing(tracer: spans.Tracer) -> TapeCounters:
    """Wrap each layer's public entry point, where its callers look it up."""
    tape = TapeCounters(tracer)
    this = sys.modules[__name__]
    for owner, attr, name in (
        (AlignmentModel, "forward", "model.forward"),
        (AlignmentModel, "encode_eeg", "eeg.encode"),
        (FilterGenerator, "generate", "dynfilter.generate"),
        (modelmod, "apply_dynamic_filter", "dynfilter.apply"),
        (VisionBackbone, "patch_embed", "backbone.patch_embed"),
        (VisionBackbone, "insert_prompts", "backbone.insert_prompts"),
        (VisionBackbone, "vit_forward", "backbone.vit"),
        (ProjectionHead, "project", "backbone.project"),
        (CrossAttentionFusion, "fuse", "fusion.fuse"),
        (modelmod, "total_loss", "losses.total"),
        (trainer.Adam, "step", "trainer.adam"),
        (trainer, "fit", "trainer.fit"),
        (trainer.Checkpoint, "build_model", "trainer.build_model"),
        (trainer, "train_step", "trainer.step"),
        (trainer, "validation_loss", "trainer.validation"),
        (trainer, "save_checkpoint", "trainer.save_checkpoint"),
        (trainer, "load_checkpoint", "trainer.load_checkpoint"),
        (trainer, "embed_split", "trainer.embed_split"),
        (trainer, "make_batch", "data.make_batch"),
        (datamod, "generate_synthetic", "data.generate"),
        (datamod, "save_dataset", "data.save"),
        (datamod, "load_split", "data.load_split"),
        (metrics, "build_report", "metrics.build_report"),
        (this, "relevance_map", "metrics.map_relevance"),
        (this, "eval_pass", "eval.pass"),
    ):
        tracer.patch(owner, attr, name)
    tracer.patch(AlignmentModel, "encode_images", "model.encode_images",
                 after=tape.after_encode_images)
    tracer.patch(Tensor, "backward", "tensor.backward", before=tape.before_backward)
    return tape


@dataclasses.dataclass
class Window:
    """One epoch of a fit, or one eval pass: its duration and its batches'."""

    traced: bool
    start: tuple[float, float]
    wall_s: float = math.nan
    cpu_s: float = math.nan
    batches: Durations = dataclasses.field(default_factory=Durations)
    samples: int = 0
    aside_s: list[float] = dataclasses.field(default_factory=lambda: [0.0, 0.0])

    def add_batch(self, start: tuple[float, float], end: tuple[float, float],
                  reference: Reference) -> None:
        """Record a batch, then run its reference units without counting them."""
        self.batches.add(start, end, reference)
        done = clocks()
        self.aside_s = [spent + b - a for spent, a, b in zip(self.aside_s, end, done)]


def close(window: Window) -> Window:
    end = clocks()
    window.wall_s = end[0] - window.start[0] - window.aside_s[0]
    window.cpu_s = end[1] - window.start[1] - window.aside_s[1]
    return window


def pass_cost(window: Window) -> float:
    """A window's CPU time in reference units: each batch by its own
    reference time, the rest (validation, I/O, scoring) by their median."""
    rest_ms = 1000.0 * window.cpu_s - sum(window.batches.cpu)
    return sum(window.batches.costs()) + rest_ms / statistics.median(window.batches.ref)


def summarise(windows: list[Window], setup: Durations, reference: Reference) -> tuple[dict, dict]:
    """End-to-end metrics from the run's untraced windows, and raw figures beside them.

    Every timing is CPU time of the benchmark's process: the loop is one
    thread with BLAS pinned to one thread, so on an idle host it equals
    wall time, and it leaves out the time other processes hold the core.
    Each batch's time is then divided by the mean time of the reference
    units run right after it (``reference.py``); a pass's time is the sum
    of its batches' and the rest divided by their median reference time
    (``pass_cost``). That cancels the host's speed, which drifts within
    and between runs; the metrics are in reference units (``ref``).
    ``setup_s`` must be in seconds: it is each set-up's time in reference
    units times ``NOMINAL_UNIT_MS``, that is its CPU time on a host as fast
    as the idle one the unit was sized on. The raw CPU and wall figures,
    and the batch p90, go to ``info`` and are never gated.
    """
    metrics_ = {"setup_s": statistics.median(setup.costs()) * NOMINAL_UNIT_MS / 1000.0}
    info: dict = {"n_windows": len(windows),
                  "setup_cpu_s": statistics.median(setup.cpu) / 1000.0,
                  "setup_wall_s": statistics.median(setup.wall) / 1000.0,
                  "reference_ms": reference.median_ms(), "reference_units": len(reference.cpu_ms)}
    plain = [w for w in windows if not w.traced]
    if plain:
        cpu = [ms for w in plain for ms in w.batches.cpu]
        wall = [ms for w in plain for ms in w.batches.wall]
        cost = [c for w in plain for c in w.batches.costs()]
        samples = sum(w.samples for w in plain)
        metrics_.update(
            samples_per_ref=samples / sum(cost),
            batch_p50_ref=percentile(cost, 50),
            pass_ref=statistics.median(pass_cost(w) for w in plain),
        )
        info.update(batches=len(cpu), batch_p90_ref=percentile(cost, 90),
                    batch_cpu_ms_p50=percentile(cpu, 50), batch_cpu_ms_p90=percentile(cpu, 90),
                    batch_wall_ms_p50=percentile(wall, 50), batch_wall_ms_p90=percentile(wall, 90),
                    pass_cpu_s=statistics.median(w.cpu_s for w in plain),
                    pass_wall_s=statistics.median(w.wall_s for w in plain),
                    samples_per_cpu_s=1000.0 * samples / sum(cpu),
                    samples_per_wall_s=1000.0 * samples / sum(wall))
    return metrics_, info


def overhead_pct(windows: list[Window]) -> float:
    """Median batch time in reference units, traced over untraced windows, as a
    percent increase."""
    traced = [c for w in windows if w.traced for c in w.batches.costs()]
    plain = [c for w in windows if not w.traced for c in w.batches.costs()]
    if not traced or not plain:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


def learned(trained_map: float, untrained_map: float) -> bool:
    """Training must at least double the untrained probe mAP (criterion 7's bar)."""
    return trained_map >= 2.0 * untrained_map


# -- training ------------------------------------------------------------------


def run_train(spec: TrainSpec, seed: int, seconds: float, workdir: Path,
              tracer: spans.Tracer | None, checks: Checks) -> Outcome:
    """``fit`` calls back to back for ``seconds``.

    Every fit starts from the same seeded model, so each must produce the
    same checkpoint; the probe is scored on the first. The first fit always
    runs to its end; a later one is cut at its first step after
    ``seconds``, and its unfinished epoch is dropped. A window is one
    epoch: its steps, validation pass and the snapshot before it. A traced
    run records spans on the first fit's odd epochs only, so the even
    epochs measure the same steps untraced.
    """
    tape = install_tracing(tracer) if tracer else None
    reference = Reference(tracer.aside if tracer else None)
    splits, setup = timed_setups(setup_train, spec, seed, workdir, reference)
    train, val, probe = splits["train"], splits["val"], splits["probe"]
    cfg = spec.config()
    geometry = (spec.channels, spec.timesteps, spec.height)
    untrained_map = retrieval_quality(AlignmentModel(cfg, *geometry), probe, cfg, checks)

    windows: list[Window] = []
    fit_state = {"epoch": 0, "first": True, "open": None}
    original_step = trainer.train_step
    original_validation = trainer.validation_loss
    deadline = math.inf

    def timed_step(model, batch, *args, **kwargs):
        if not fit_state["first"] and time.perf_counter() > deadline:
            raise TimeUp
        start = clocks()
        parts = original_step(model, batch, *args, **kwargs)
        window = fit_state["open"]
        window.add_batch(start, clocks(), reference)
        window.samples += len(batch)
        checks.check(all(math.isfinite(parts[k]) for k in LOSS_KEYS),
                     f"non-finite loss components {parts}")
        return parts

    def timed_validation(*args, **kwargs):
        loss = original_validation(*args, **kwargs)
        if fit_state["open"] is not None:
            windows.append(close(fit_state["open"]))
        fit_state["epoch"] += 1
        traced = tracer is not None and fit_state["first"] and fit_state["epoch"] % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        fit_state["open"] = Window(traced, clocks())
        return loss

    fits = 0
    first_ckpt = first_digest = None
    trainer.train_step, trainer.validation_loss = timed_step, timed_validation
    try:
        deadline = time.perf_counter() + seconds
        while True:
            fit_state.update(epoch=0, open=None)
            if tracer is not None:
                tracer.enabled = fit_state["first"]
            model = AlignmentModel(cfg, *geometry)
            try:
                ckpt, _ = trainer.fit(model, train, val)
            except TimeUp:
                break
            fits += 1

            if tracer is not None:
                tracer.enabled = fit_state["first"]
            directory = workdir / f"checkpoint{fits}"
            trainer.save_checkpoint(ckpt, str(directory))
            digest = digest_of(ckpt)
            checks.check(digest_of(trainer.load_checkpoint(str(directory))) == digest,
                         "reloaded checkpoint has a different parameter_digest")
            shutil.rmtree(directory)
            if first_ckpt is None:
                first_ckpt, first_digest = ckpt, digest
            else:
                checks.check(digest == first_digest,
                             "fit from the same seed gave a different checkpoint")
            fit_state["first"] = False
            if tracer is not None:
                tracer.enabled = False
    except Exception:
        checks.crashed("fit")
    finally:
        trainer.train_step, trainer.validation_loss = original_step, original_validation

    if tracer is not None:
        tracer.enabled = True
    probe_map = math.nan
    if first_ckpt is not None:
        probe_map = retrieval_quality(first_ckpt.build_model(), probe, cfg, checks)
        checks.check(learned(probe_map, untrained_map),
                     f"probe mAP {probe_map:.4f} after training is not double "
                     f"the untrained {untrained_map:.4f}")
    metrics_, info = summarise(windows, setup, reference)
    info.update(fits=fits, probe_queries=len(probe))
    layers = {}
    if tracer is not None:
        layers = tape.values()
        layers["trace.overhead_pct"] = overhead_pct(windows)
    layers["quality.probe_mAP"] = probe_map
    return Outcome(metrics_, info, {"probe_mAP": probe_map, "untrained_probe_mAP": untrained_map},
                   layers, windows, setup)


# -- retrieval -----------------------------------------------------------------


@dataclasses.dataclass
class RetrieveState:
    data_dir: Path
    checkpoint_dir: Path
    split: datamod.SplitArrays
    model: AlignmentModel


def setup_retrieve(spec: RetrieveSpec, seed: int, directory: Path) -> RetrieveState:
    """Write the held-out query set and a checkpoint of the seeded model."""
    cfg = spec.config()
    queries = datamod.generate_synthetic(seed, spec.classes, spec.per_class, spec.channels,
                                         spec.timesteps, spec.height, spec.noise)
    data_dir = directory / "data"
    datamod.save_dataset(_manifest(spec, {"test": queries}, spec.classes, seed),
                         {"test": queries}, str(data_dir))
    model = AlignmentModel(cfg, spec.channels, spec.timesteps, spec.height)
    ckpt = trainer.Checkpoint(
        config=cfg, channels=spec.channels, timesteps=spec.timesteps, image_size=spec.height,
        epoch=0, val_loss=math.nan, train_class_ids=[],
        values=trainer.snapshot_values(model),
    )
    checkpoint_dir = directory / "checkpoint"
    trainer.save_checkpoint(ckpt, str(checkpoint_dir))
    return RetrieveState(data_dir, checkpoint_dir, queries, model)


def eval_pass(state: RetrieveState, ks, batch_size: int):
    """One ``eegalign eval``: load, embed, score, report."""
    ckpt = trainer.load_checkpoint(str(state.checkpoint_dir))
    split = datamod.load_split(datamod.load_dataset(str(state.data_dir)), "test")
    model = ckpt.build_model()
    z_e, z_i = trainer.embed_split(model, split, batch_size)
    embed_end = clocks()
    sim = z_e @ z_i.T
    report = metrics.build_report(sim, ks)
    return ckpt, sim, report, relevance_map(sim, split.class_ids), embed_end


def run_retrieve(spec: RetrieveSpec, seed: int, seconds: float, workdir: Path,
                 tracer: spans.Tracer | None, checks: Checks) -> Outcome:
    """Eval passes back to back until the next would overrun ``seconds``.

    The similarity matrix of every pass must equal, bit for bit, the one
    computed in memory from the freshly built model and generated data.
    """
    tape = install_tracing(tracer) if tracer else None
    reference = Reference(tracer.aside if tracer else None)
    state, setup = timed_setups(setup_retrieve, spec, seed, workdir, reference)
    cfg = spec.config()
    batch_size, ks = cfg.trainer.batch_size, cfg.eval.ks
    if tracer is not None:
        tracer.enabled = False
    reference_sim = similarity(state.model, state.split, batch_size)
    reference_digest = trainer.parameter_digest(state.model.parameters())

    batch_start: list[tuple[float, float]] = []
    original_make_batch = trainer.make_batch

    def timed_make_batch(*args, **kwargs):
        if batch_start:  # the previous batch of this pass ends here
            window.add_batch(batch_start.pop(), clocks(), reference)
        batch_start.append(clocks())
        return original_make_batch(*args, **kwargs)

    windows: list[Window] = []
    quality = math.nan
    trainer.make_batch = timed_make_batch
    try:
        loop_start = time.perf_counter()
        while True:
            traced = tracer is not None and len(windows) in TRACED_PASSES
            if tracer is not None:
                tracer.enabled = traced
            window = Window(traced, clocks())
            ckpt, sim, report, quality, embed_end = eval_pass(state, ks, batch_size)
            window.add_batch(batch_start.pop(), embed_end, reference)
            windows.append(close(window))
            window.samples = sim.shape[0]

            checks.check(trainer.parameter_digest(ckpt.build_model().parameters()) == reference_digest,
                         "reloaded checkpoint has a different parameter_digest")
            checks.check(sim.shape == reference_sim.shape and sim.tobytes() == reference_sim.tobytes(),
                         "similarity matrix differs from the in-memory reference")
            error = invariant_error(report)
            checks.check(error is None, f"retrieval report invariants: {error}")
            if time.perf_counter() - loop_start + window.wall_s > seconds:
                break
    except Exception:
        checks.crashed("eval pass")
    finally:
        trainer.make_batch = original_make_batch

    metrics_, info = summarise(windows, setup, reference)
    info.update(queries=len(state.split))
    layers = {}
    if tracer is not None:
        layers = tape.values()
        layers["trace.overhead_pct"] = overhead_pct(windows)
    layers["quality.probe_mAP"] = quality
    return Outcome(metrics_, info, {"mAP": quality}, layers, windows, setup)


def run(name: str, seed: int, seconds: float, workdir: Path, tracer, checks: Checks,
        toy: bool = False) -> Outcome:
    spec = (TOY if toy else WORKLOADS)[name]
    runner = run_train if isinstance(spec, TrainSpec) else run_retrieve
    try:
        return runner(spec, seed, seconds, workdir, tracer, checks)
    finally:
        if tracer is not None:
            tracer.restore()
