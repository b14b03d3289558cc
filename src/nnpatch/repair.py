"""Particle swarm repair over a localized weight set.

Fitness rewards patching failed samples and keeping sampled passed samples
intact (weighted by alpha), plus loss-ratio terms; an optional perfect-intact
gate zeroes any candidate that breaks even one passed sample. Half the swarm
starts at the original weights, half from a normal fit to the repair layer's
weight distribution. The swarm is (P, D) arrays, scored in batched passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .data import take_sample
from .localization import LocalizedSet
from .network import (
    Batch,
    Model,
    _activate,
    forward,
    layer_inputs,
    loss,
    loss_from_picked,
    loss_from_probs,
    read_weights,
    write_weights,
)

VARIANTS = ("eq1", "eq2")
ORIENTATIONS = ("prose", "literal")

# Cap on each stacked weight or activation array that BatchScorer computes on the
# objective's path (a `full=True` call on a count-only set may pass it by C/|K|):
# bounds its memory; the chunk it implies depends only on sample counts and layer
# widths, never on the machine.
CHUNK_BYTES = 512 * 1024

# A sample whose label logit beats every other logit by more than BAND is classified
# correctly by softmax + argmax; one whose best other logit beats it by more than
# BAND is not. exp(-BAND) stays far from 1 in float64, so no probability tie can
# hide inside either case; samples in between go through softmax + argmax.
BAND = 1e-9


@dataclass(frozen=True)
class FitnessConfig:
    """Knobs of the repair objective."""

    variant: str = "eq2"
    alpha: float = 1.0
    beta: float = 0.25
    delta: float = 1e-6
    perfect_intact: bool = False
    loss_ratio_orientation: str = "prose"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.loss_ratio_orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not self.delta > 0:
            raise ValueError("delta must be > 0")


@dataclass(frozen=True)
class SwarmConfig:
    """Swarm size, iteration budget and the standard PSO coefficients."""

    n_particles: int = 100
    n_iterations: int = 100
    inertia: float = 0.7298
    cognitive: float = 1.49618
    social: float = 1.49618
    velocity_clamp: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("need >= 2 particles (half original, half sampled)")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")
        if self.velocity_clamp <= 0:
            raise ValueError("velocity_clamp must be > 0")
        for name in ("inertia", "cognitive", "social"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class FitnessBreakdown:
    """One candidate's score with every ingredient kept for inspection."""

    n_patched: int
    n_intact: int
    loss_neg_before: float
    loss_neg_after: float
    loss_pos_before: float
    loss_pos_after: float
    raw_fitness: float
    gated_fitness: float


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    gbest_fitness: float
    n_patched: int
    n_intact: int
    n_gated: int  # candidates of this iteration whose score the gate changed
    n_pbest_improved: int  # particles whose personal best rose this iteration


@dataclass(frozen=True)
class RepairResult:
    model: Model
    best: FitnessBreakdown
    trace: tuple[TraceRow, ...]
    best_position: np.ndarray | None
    identity_fallback: bool
    no_search_space: bool = False
    candidates_scored: int = 0  # telemetry: rows the batch scorer evaluated
    band_fallback_columns: int = 0  # telemetry: I_pos samples counted by softmax + argmax
    units_recomputed: int = 0  # telemetry: repair-layer units each candidate recomputes
    units_total: int = 0  # telemetry: the repair layer's width


def sample_positives(positive_pool: Batch, n_pos: int, seed: int) -> Batch:
    """Fixed I_pos for a repair run: min(n_pos, pool) without replacement."""
    if len(positive_pool) == 0:
        raise ValueError("positive pool is empty")
    if n_pos < 1:
        raise ValueError("n_pos must be >= 1")
    return take_sample(positive_pool, n_pos, seed)


def loss_ratio(before: float, after: float, cfg: FitnessConfig) -> float:
    """R(I): old/new loss under `prose` orientation, new/old under `literal`."""
    num, den = (before, after) if cfg.loss_ratio_orientation == "prose" else (after, before)
    return (num + cfg.delta) / (den + cfg.delta)


def raw_fitness(
    n_patched: int,
    n_neg: int,
    n_intact: int,
    n_pos: int,
    r_neg: float,
    r_pos: float,
    cfg: FitnessConfig,
) -> float:
    """The two objective variants over already-computed counts and ratios.

    eq1 adds both loss ratios; eq2 keeps only the failed-side ratio, scaled
    by beta.
    """
    base = n_patched / n_neg + cfg.alpha * n_intact / n_pos
    if cfg.variant == "eq1":
        return base + r_neg + r_pos
    return base + cfg.beta * r_neg


class Scores(NamedTuple):
    """Fitness ingredients of many candidates, one array entry each."""

    n_patched: np.ndarray
    n_intact: np.ndarray
    loss_neg: np.ndarray
    loss_pos: np.ndarray
    raw: np.ndarray
    gated: np.ndarray

    def breakdown(self, k: int, base_losses: tuple[float, float]) -> FitnessBreakdown:
        return FitnessBreakdown(
            int(self.n_patched[k]), int(self.n_intact[k]),
            base_losses[0], float(self.loss_neg[k]),
            base_losses[1], float(self.loss_pos[k]),
            float(self.raw[k]), float(self.gated[k]),
        )


def _score(counts, losses, sizes, base_losses, cfg: FitnessConfig, undefined) -> Scores:
    """Raw and gated fitness from (I_neg, I_pos) rows of correct counts and
    mean losses, one column per candidate. A candidate that is `undefined`
    (some sample's softmax is nan) or whose raw fitness is not finite scores
    -inf, raw and gated, whether or not the objective reads the broken loss."""
    with np.errstate(invalid="ignore"):
        ratios = [loss_ratio(before, after, cfg) for before, after in zip(base_losses, losses)]
        raw = raw_fitness(counts[0], sizes[0], counts[1], sizes[1], *ratios, cfg)
    scorable = np.isfinite(raw) & ~undefined
    raw = np.where(scorable, raw, -np.inf)
    gated = np.where(cfg.perfect_intact & (counts[1] < sizes[1]) & scorable, 0.0, raw)
    return Scores(*counts, *losses, raw, gated)


def fitness(
    candidate: Model,
    i_neg: Batch,
    i_pos: Batch,
    base_losses: tuple[float, float],
    cfg: FitnessConfig,
) -> FitnessBreakdown:
    """Score a candidate model against fixed I_neg / I_pos.

    base_losses are the pre-repair losses on (I_neg, I_pos), computed once.
    A candidate with non-finite loss on either set scores -inf instead of
    raising, under both variants.
    """
    if len(i_neg) == 0 or len(i_pos) == 0:
        raise ValueError("fitness needs non-empty I_neg and I_pos")
    batches = (i_neg, i_pos)
    probs = [forward(candidate, b) for b in batches]
    counts = np.array([[(np.argmax(p, axis=1) == b.labels).sum()] for p, b in zip(probs, batches)])
    losses = np.array([[loss_from_probs(p, b.labels)] for p, b in zip(probs, batches)])
    undefined = ~np.isfinite(losses).all(axis=0)
    scores = _score(counts, losses, (len(i_neg), len(i_pos)), base_losses, cfg, undefined)
    return scores.breakdown(0, base_losses)


def layer_weight_stats(model: Model, layer: int) -> tuple[float, float]:
    """Mean and std of the repair layer's weights; degenerate std gets a
    small floor so init sampling stays well-defined."""
    w = model.weights[layer].ravel()
    mu = float(w.mean())
    sigma = float(w.std())
    if sigma == 0.0:
        sigma = max(abs(mu), 1.0) * 1e-2
    return mu, sigma


class _Cached(NamedTuple):
    """What one sample set puts into every candidate's scores that no candidate
    changes: the repair layer's inputs and the share of its untouched units."""

    a: np.ndarray  # repair-layer inputs, (fan_in, n)
    labels: np.ndarray
    samples: np.ndarray
    adds: list  # added to each stage's product: a bias, or c0 just above a hidden repair layer
    others: np.ndarray  # the last add on the computed logit rows, -inf at each label
    at_label: np.ndarray  # flat index of each label logit in a (rows, n) product
    label_add: np.ndarray  # the last add at each label
    fixed: np.ndarray | None  # logits of the untouched rows, under last-layer repair
    fixed_best: np.ndarray | None  # best untouched logit other than the label, per sample
    label_is_fixed: np.ndarray | None  # samples whose label row is untouched
    fixed_label: np.ndarray | None  # their label logit


class BatchScorer:
    """Scores many values of the localized weights at once.

    A patch changes only the repair layer's units (rows of its transposed
    weights) that own a localized weight, the touched units K. Everything else
    is computed once per set: the repair layer's inputs, the untouched units'
    outputs and, when the repair layer is hidden, their share of the next
    layer's pre-activation, c0 = W[:, U] @ h_U + b. Each call then runs, per
    candidate, the K rows of the repair layer, the next layer as
    c0 + W[:, K] @ act(z_K), and the layers above as they are, on feature-major
    (chunk, width, n) stacks of at most CHUNK_BYTES each, chunked per set by its
    own sample count. Under last-layer repair only the K logit rows are
    multiplied; the untouched rows come from the original logits, in class
    order. Each candidate gets its own matrix products and reductions, so its
    scores do not depend on its chunk and a candidate at the original weights
    scores exactly like `identity`.

    A set whose loss the objective reads (I_neg always, I_pos under eq1) goes
    through softmax, argmax and the mean loss. I_pos under eq2 stops at the
    logits: a sample counts as correct where its label logit beats every other
    logit by more than BAND, and candidates with a sample inside the band or
    with a non-finite margin take softmax + argmax, so the counts equal the
    full path's bit for bit. Its loss is then left nan; `full=True` computes
    every loss. A candidate with a non-finite value, or under which any
    sample's softmax is nan (a +inf or nan logit), scores -inf.
    """

    def __init__(self, model: Model, refs, i_neg: Batch, i_pos: Batch, cfg: FitnessConfig):
        if len(i_neg) == 0 or len(i_pos) == 0:
            raise ValueError("fitness needs non-empty I_neg and I_pos")
        if max(i_neg.labels.max(), i_pos.labels.max()) >= model.n_classes:
            raise ValueError("label out of range for this model")
        original = read_weights(model, refs)[None]
        layer = refs[0].layer
        w, b = model.weights[layer].T.copy(), model.biases[layer][:, None]
        is_touched = np.zeros(len(w), dtype=bool)
        is_touched[[r.j for r in refs]] = True
        touched, untouched = np.flatnonzero(is_touched), np.flatnonzero(~is_touched)
        above = list(zip(model.layers[layer + 1:], model.weights[layer + 1:], model.biases[layer + 1:]))
        self.cfg = cfg
        self.sizes = (len(i_neg), len(i_pos))
        self.units = (len(touched), len(w))  # units recomputed per candidate, of the layer's
        self.n_classes = model.n_classes
        self.weights = w[touched]  # every candidate's rows before its localized values
        self.flat = np.searchsorted(touched, [r.j for r in refs]) * w.shape[1] + [r.i for r in refs]
        # stage 0 is the candidates' K rows; the stage above reads only their columns
        self.stages = [(model.layers[layer].activation, None)] + [
            (spec.activation, wk.T[:, touched].copy() if k == 0 else wk.T.copy())
            for k, (spec, wk, _) in enumerate(above)]
        self.widths = [len(touched)] + [spec.output_size for spec, _, _ in above]
        # the logit rows each candidate computes; under last-layer repair the rest are fixed
        self.rows = np.arange(model.n_classes) if above else touched
        self.fixed_rows = untouched if not above and untouched.size else None
        self.sets = []
        for batch in (i_neg, i_pos):
            n, labels = len(batch), batch.labels
            samples = np.arange(n)
            a = layer_inputs(model, batch, layer).T.copy()
            z0 = w @ a + b
            adds = [b[touched]]
            if above:
                h = _activate(z0[untouched], model.layers[layer].activation)
                adds.append(above[0][1].T[:, untouched] @ h + above[0][2][:, None])
                adds += [bk[:, None] for _, _, bk in above[1:]]
            row = np.minimum(np.searchsorted(self.rows, labels), len(self.rows) - 1)
            computed = self.rows[row] == labels
            others = np.empty((len(self.rows), n))
            others[...] = adds[-1]
            label_add = others[row, samples]
            others[row[computed], samples[computed]] = -np.inf
            fixed = fixed_best = label_is_fixed = fixed_label = None
            if self.fixed_rows is not None:
                fixed = z0[untouched]
                label_is_fixed = ~computed
                urow = np.minimum(np.searchsorted(untouched, labels), len(untouched) - 1)
                fixed_label = fixed[urow, samples]
                fixed_others = fixed.copy()
                fixed_others[urow[label_is_fixed], samples[label_is_fixed]] = -np.inf
                fixed_best = fixed_others.max(axis=0)
            self.sets.append(_Cached(a, labels, samples, adds, others, row * n + samples,
                                     label_add, fixed, fixed_best, label_is_fixed, fixed_label))
        # each set's chunk is sized by the widest array its objective's path computes
        # per candidate: the K rows and the layers above, and all classes for softmax
        widest = (max(*self.widths, self.n_classes), max(self.widths))
        count_only = (False, cfg.variant == "eq2")
        self.chunks = [max(1, CHUNK_BYTES // (8 * widest[c] * max(n, w.shape[1])))
                       for n, c in zip(self.sizes, count_only)]
        self.n_scored, self.n_fallback = 1, 0  # candidates scored; I_pos columns in the band
        counts, losses, undefined = self._kernel(original, True)
        self.base_losses = tuple(float(row[0]) for row in losses)
        self.identity = _score(counts, losses, self.sizes, self.base_losses, cfg, undefined)

    def _kernel(self, positions: np.ndarray, full: bool):
        """Correct counts and mean losses, rows (I_neg, I_pos) by candidate,
        and which candidates are undefined."""
        counts = np.zeros((2, len(positions)), dtype=np.int64)
        losses = np.full((2, len(positions)), np.nan)
        undefined = ~np.isfinite(positions).all(axis=1)
        count_only = (False, not full and self.cfg.variant == "eq2")
        last = len(self.stages) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            for s, c in enumerate(self.sets):
                # scratch reused by every chunk: arrays this size freed and allocated
                # again per chunk cost page faults that outweigh the arithmetic; the
                # entries no candidate changes are written once per call
                chunk = max(1, min(self.chunks[s], len(positions)))
                n_samples = len(c.labels)
                weight_stack = np.empty((chunk, *self.weights.shape))
                weight_stack[...] = self.weights
                z_stacks = [np.empty((chunk, width, n_samples)) for width in self.widths]
                logits = None
                if count_only[s]:
                    spare = np.empty_like(z_stacks[-1])
                else:  # softmax output; the logits keep their fixed rows
                    spare = np.empty((chunk, self.n_classes, n_samples))
                    if self.fixed_rows is not None:
                        logits = np.empty_like(spare)
                        logits[:, self.fixed_rows] = c.fixed
                for lo in range(0, len(positions), chunk):
                    block = positions[lo:lo + chunk]
                    n, cols = len(block), slice(lo, lo + len(block))
                    weights = weight_stack[:n]
                    weights.reshape(n, -1)[:, self.flat] = block
                    out = c.a
                    for k, ((activation, w), add) in enumerate(zip(self.stages, c.adds)):
                        z = np.matmul(weights if k == 0 else w, out, out=z_stacks[k][:n])
                        if k < last:
                            z += add
                            out = _activate(z, activation, axis=-2, out=z)
                    if count_only[s]:
                        counts[s, cols], bad = self._count_from_logits(z, c, spare[:n])
                    else:
                        z += c.adds[-1]
                        if logits is not None:
                            logits[:n, self.rows] = z
                            z = logits[:n]
                        out = _activate(z, "softmax", axis=-2, out=spare[:n])
                        counts[s, cols] = (out.argmax(axis=-2) == c.labels).sum(axis=-1)
                        # C order, so each mean sums its samples as a 1-D batch would
                        picked = np.ascontiguousarray(out[:, c.labels, c.samples])
                        losses[s, cols] = loss_from_picked(picked)
                        bad = np.isnan(losses[s, cols])
                    undefined[cols] |= bad
        return counts, losses, undefined

    def _count_from_logits(self, z: np.ndarray, c: _Cached, spare: np.ndarray):
        """Correct counts and undefined flags of set `c` from the computed logit
        rows' (chunk, rows, n) products before the last add, by label margin;
        `spare` is scratch of z's shape."""
        label_z = np.take(z.reshape(len(z), -1), c.at_label, axis=1) + c.label_add
        best = np.add(z, c.others, out=spare).max(axis=-2)
        if c.fixed is not None:
            np.copyto(label_z, c.fixed_label, where=c.label_is_fixed)
            np.maximum(best, c.fixed_best, out=best)
        margin = label_z - best
        correct = margin > BAND
        unsure = ~np.isfinite(margin) | (np.abs(margin) <= BAND)
        undefined = np.zeros(len(z), dtype=bool)
        rows = np.flatnonzero(unsure.any(axis=1))
        if rows.size:
            logits = z[rows] + c.adds[-1]
            if c.fixed is not None:
                computed = logits
                logits = np.empty((len(rows), self.n_classes, z.shape[-1]))
                logits[:, self.fixed_rows] = c.fixed
                logits[:, self.rows] = computed
            probs = _activate(logits, "softmax", axis=-2, out=logits)
            correct[rows] = np.where(unsure[rows], probs.argmax(axis=-2) == c.labels, correct[rows])
            undefined[rows] = np.isnan(probs).any(axis=(-2, -1))
            self.n_fallback += int(unsure.sum())
        return correct.sum(axis=-1), undefined

    def __call__(self, positions: np.ndarray, full: bool = False) -> Scores:
        """Scores of a (P, D) array of candidate weight values; with `full`,
        every loss is computed even where the objective does not read it."""
        self.n_scored += len(positions)
        counts, losses, undefined = self._kernel(positions, full)
        return _score(counts, losses, self.sizes, self.base_losses, self.cfg, undefined)


def init_swarm(
    localized: LocalizedSet, model: Model, cfg: SwarmConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Half/half positions and zero velocities, as (P, D) arrays.

    The first ceil(P/2) rows sit at the original weights; the rest are one
    block of i.i.d. draws from Normal(mu_hat, sigma_hat^2), fit to the repair
    layer, taken from `rng`.
    """
    if len(localized) == 0:
        raise ValueError("cannot initialize a swarm over an empty localized set")
    refs = localized.refs
    mu, sigma = layer_weight_stats(model, refs[0].layer)
    n_original = (cfg.n_particles + 1) // 2
    sampled = rng.normal(mu, sigma, size=(cfg.n_particles - n_original, len(refs)))
    positions = np.vstack([np.tile(read_weights(model, refs), (n_original, 1)), sampled])
    return positions, np.zeros_like(positions)


def repair(
    model: Model,
    localized: LocalizedSet,
    i_neg: Batch,
    i_pos: Batch,
    fcfg: FitnessConfig,
    scfg: SwarmConfig,
) -> RepairResult:
    """Global-best PSO over the localized weights.

    Synchronous updates: every particle moves against the previous
    iteration's global best, which is then re-reduced in fixed particle
    order (ties keep the incumbent). One stream seeded by `scfg.seed` draws
    the sampled initial positions, then per iteration a (P, D) uniform block
    for the cognitive term and one for the social term. If nothing strictly
    beats the identity patch the original model is returned unchanged. The
    search scores only what the objective reads; the returned breakdown has
    every loss.
    """
    if len(localized) == 0:
        base_losses = (loss(model, i_neg), loss(model, i_pos))
        best = fitness(model, i_neg, i_pos, base_losses, fcfg)
        return RepairResult(model, best, (), None, identity_fallback=True, no_search_space=True)
    refs = localized.refs
    scorer = BatchScorer(model, refs, i_neg, i_pos, fcfg)
    rng = np.random.default_rng(scfg.seed)
    pos, vel = init_swarm(localized, model, scfg, rng)
    vmax = scfg.velocity_clamp * layer_weight_stats(model, refs[0].layer)[1]
    pbest_pos, pbest_fit = pos.copy(), np.full(len(pos), -np.inf)
    gbest, gbest_pos, trace = None, None, []
    for it in range(scfg.n_iterations + 1):
        if it:
            r1, r2 = rng.uniform(size=(2, *pos.shape))
            vel = (scfg.inertia * vel + scfg.cognitive * r1 * (pbest_pos - pos)
                   + scfg.social * r2 * (gbest_pos - pos))
            np.clip(vel, -vmax, vmax, out=vel)
            pos = pos + vel
        scores = scorer(pos)
        improved = scores.gated > pbest_fit
        pbest_fit[improved] = scores.gated[improved]
        pbest_pos[improved] = pos[improved]
        # a particle that overtakes gbest improved just now, so `scores` holds its pbest
        k = int(np.argmax(pbest_fit))
        if gbest is None or pbest_fit[k] > gbest.gated_fitness:
            gbest, gbest_pos = scores.breakdown(k, scorer.base_losses), pbest_pos[k].copy()
        n_gated = int(np.count_nonzero(scores.gated != scores.raw))
        trace.append(TraceRow(it, gbest.gated_fitness, gbest.n_patched, gbest.n_intact,
                              n_gated, int(improved.sum())))

    if gbest.gated_fitness > scorer.identity.gated[0]:
        patched, best = write_weights(model, refs, gbest_pos), scorer(gbest_pos[None], full=True)
    else:
        patched, best, gbest_pos = model, scorer.identity, None
    return RepairResult(patched, best.breakdown(0, scorer.base_losses), tuple(trace), gbest_pos,
                        identity_fallback=gbest_pos is None,
                        candidates_scored=scorer.n_scored, band_fallback_columns=scorer.n_fallback,
                        units_recomputed=scorer.units[0], units_total=scorer.units[1])


def write_trace_csv(trace, path) -> None:
    names = [f.name for f in fields(TraceRow)]
    lines = [",".join(names)] + [",".join(repr(getattr(row, n)) for n in names) for row in trace]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
