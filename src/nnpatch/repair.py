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

from .data import Dataset
from .formats import write_csv
from .localization import LocalizedSet
from .network import (
    Model,
    forward,
    layer_inputs,
    loss_from_picked,
    loss_from_probs,
    read_weights,
    softmax,
    write_weights,
)

VARIANTS = ("eq1", "eq2")

# Cap on each stacked weight or activation array that BatchScorer computes on the
# objective's path (a floorless call on a count-only set may pass it by C/|K|). A
# scorer keeps one arena of such arrays for all its calls (arrays this size freed and
# allocated again per call cost page faults that outweigh the arithmetic): the weight
# stack and each set's z stacks and spare, grown to the largest chunk. The cap bounds
# the arena; the chunk it implies depends only on sample counts and layer widths.
CHUNK_BYTES = 256 * 1024

# A sample whose label logit beats every other logit by more than BAND is classified
# correctly by softmax + argmax; one whose best other logit beats it by more than
# BAND is not. exp(-BAND) stays far from 1 in float64, so no probability tie can
# hide inside either case; samples in between go through softmax + argmax.
BAND = 1e-9

# Under the perfect-intact gate, I_pos is scored in two parts, first the SCREEN samples
# with the smallest logit margin at the subject; a search call rejects a candidate whose
# personal best is >= 0 and that breaks one of them, by that part's own count, without
# scoring I_neg or the rest of I_pos. Sets smaller than 4 * SCREEN are one part. Under
# eq2 the same size rule decides whether a search call skips I_pos for a candidate that
# cannot beat its personal best.
SCREEN = 32

# The swarm's dynamics: the constriction coefficients of Clerc & Kennedy (IEEE TEC
# 2002) for inertia and the cognitive and social pulls, and each velocity component
# clamped to VELOCITY_CLAMP times the repair layer's weight standard deviation.
INERTIA = 0.7298
COGNITIVE = 1.49618
SOCIAL = 1.49618
VELOCITY_CLAMP = 3.0

# The search's counters, as timing.json names them: candidates scored, I_pos samples
# counted by softmax + argmax, candidates screened out, candidates that skipped I_pos
# below their personal best, and |K| of the layer's width.
TELEMETRY = ("candidates_scored", "band_fallback_columns", "gate_screened", "pos_skipped",
             "units_recomputed", "units_total")


@dataclass(frozen=True)
class FitnessConfig:
    """Knobs of the repair objective."""

    variant: str = "eq2"
    alpha: float = 1.0
    beta: float = 0.25
    delta: float = 1e-6
    perfect_intact: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name in ("alpha", "beta", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not self.delta > 0:
            raise ValueError("delta must be > 0")


@dataclass(frozen=True)
class SwarmConfig:
    """Swarm size, iteration budget and seed."""

    n_particles: int = 100
    n_iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2 (half original, half sampled)")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")


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
    n_gated: int  # candidates of this iteration the gate zeroed (screened in, skipped out)
    n_pbest_improved: int  # particles whose personal best rose this iteration


@dataclass(frozen=True)
class RepairResult:
    model: Model
    best: FitnessBreakdown
    trace: tuple[TraceRow, ...]
    best_position: np.ndarray | None  # None when the original model is returned
    telemetry: dict  # the search's counters, under their TELEMETRY names

    @property
    def identity_fallback(self) -> bool:
        return self.best_position is None


def sample_positives(positive_pool: Dataset, n_pos: int, seed: int) -> Dataset:
    """Fixed I_pos for a repair run: a uniform sample of min(n_pos, pool)
    members without replacement, in pool order; the pool itself when it
    has no more than n_pos members."""
    if len(positive_pool) == 0:
        raise ValueError("positive pool is empty")
    if n_pos < 1:
        raise ValueError("n_pos must be >= 1")
    if n_pos >= len(positive_pool):
        return positive_pool
    rng = np.random.default_rng(seed)
    return positive_pool.subset(np.sort(rng.choice(len(positive_pool), size=n_pos, replace=False)))


def loss_ratio(before: float, after: float, cfg: FitnessConfig) -> float:
    """R(I): old over new loss, so a repair that lowers the loss raises it."""
    return (before + cfg.delta) / (after + cfg.delta)


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
    """Fitness ingredients of many candidates, one array entry each.

    A candidate the gate screen rejected reads -1 for both counts, nan for both
    losses and raw, and gated 0 with its gate set: an upper bound of its real
    gated score, which is 0 or -inf. One that skipped I_pos below its floor reads
    -1 and nan for I_pos, raw and gated nan (-inf if it is undefined on I_neg),
    and its gate is False. Either way its real gated score does not beat the floor.
    """

    n_patched: np.ndarray
    n_intact: np.ndarray
    loss_neg: np.ndarray
    loss_pos: np.ndarray
    raw: np.ndarray
    gated: np.ndarray
    gate: np.ndarray  # candidates the perfect-intact gate zeroed

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
    gate = cfg.perfect_intact & (counts[1] < sizes[1]) & scorable
    return Scores(*counts, *losses, raw, np.where(gate, 0.0, raw), gate)


def fitness(
    candidate: Model,
    i_neg: Dataset,
    i_pos: Dataset,
    base_losses: tuple[float, float],
    cfg: FitnessConfig,
) -> FitnessBreakdown:
    """Score a candidate model against fixed I_neg / I_pos: the reference
    objective that `BatchScorer` reproduces (`repair()` does not call it).

    base_losses are the pre-repair losses on (I_neg, I_pos), computed once.
    A candidate with non-finite loss on either set scores -inf instead of
    raising, under both variants.
    """
    if len(i_neg) == 0 or len(i_pos) == 0:
        raise ValueError("fitness needs non-empty I_neg and I_pos")
    sets = (i_neg, i_pos)
    probs = [forward(candidate, s.features) for s in sets]
    counts = np.array([[(np.argmax(p, axis=1) == s.labels).sum()] for p, s in zip(probs, sets)])
    losses = np.array([[loss_from_probs(p, s.labels)] for p, s in zip(probs, sets)])
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
    chunk: int  # candidates per stacked product


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
    full path's bit for bit. Its loss is then left nan; a call without a
    floor computes every loss. A candidate with a non-finite value, or under
    which any sample's softmax is nan (a +inf or nan logit), scores -inf.

    A call given a `floor` per candidate (the search's personal bests), with at
    least 4 * SCREEN I_pos samples, leaves out work for candidates that could
    not beat it. Under the perfect-intact gate I_pos is cached as two parts:
    S, the SCREEN samples with the smallest margin at the subject, and R, the
    rest. Every I_pos pass scores S first, for every candidate, then R; its
    count is the sum of both, and its loss is taken over the label
    probabilities put back in I_pos order. A defined candidate's gated score
    is 0 or above, and one that breaks an I_pos sample scores 0 or -inf, so a
    candidate defined on S whose floor is >= 0 and whose S count is short of
    |S| is screened out, scored on neither I_neg nor R.

    Under eq2 a survivor scores I_pos only when its best case beats its floor:
    its raw fitness with every I_pos sample intact. That is the score an
    intact candidate gets, by the same float operations, and an upper bound
    of any other's, as alpha >= 0; it is >= 0 or nan, as beta >= 0 and the
    loss ratio is > 0, so it also bounds the gate's 0. A survivor
    undefined on I_neg, or whose best case is not above its floor, skips I_pos.
    """

    def __init__(self, model: Model, localized: LocalizedSet, i_neg: Dataset, i_pos: Dataset,
                 cfg: FitnessConfig):
        if len(i_neg) == 0 or len(i_pos) == 0:
            raise ValueError("fitness needs non-empty I_neg and I_pos")
        if max(i_neg.labels.max(), i_pos.labels.max()) >= model.n_classes:
            raise ValueError("label out of range for this model")
        layer, i, j = localized.layer, localized.i, localized.j
        original = read_weights(model, layer, i, j)[None]
        w, b = model.weights[layer].T.copy(), model.biases[layer][:, None]
        uses = np.bincount(j, minlength=len(w))  # localized weights per unit of the layer
        if not len(j):  # an empty set recomputes unit 0 as it is, so no product is empty
            uses[0] = 1
        touched, untouched = np.flatnonzero(uses), np.flatnonzero(uses == 0)
        above = [wk.T.copy() for wk in model.weights[layer + 1:]]  # none at the last layer
        self.cfg = cfg
        self.sizes = (len(i_neg), len(i_pos))
        # whether a search call may skip I_pos for a candidate below its floor
        self.bounded = cfg.variant == "eq2" and len(i_pos) >= 4 * SCREEN
        self.telemetry = dict.fromkeys(TELEMETRY, 0)
        self.telemetry.update(units_recomputed=len(touched), units_total=len(w))
        self.n_classes = model.n_classes
        self.weights = w[touched]  # every candidate's rows before its localized values
        # the scratch arena (see CHUNK_BYTES) and its views per (chunk, samples, spare rows)
        self.stack, self.arena, self.views = np.empty((0, *self.weights.shape)), np.empty(0), {}
        self.flat = np.searchsorted(touched, j) * w.shape[1] + i
        # the layers above the candidates' K rows, the first read only at their columns
        self.above = [wk[:, touched] if k == 0 else wk for k, wk in enumerate(above)]
        self.widths = [len(touched)] + [len(wk) for wk in above]
        # the logit rows each candidate computes; under last-layer repair the rest are fixed
        self.rows = np.arange(model.n_classes) if above else touched
        self.fixed_rows = untouched if not above and untouched.size else None

        def cache(a: np.ndarray, labels: np.ndarray, count_only: bool) -> _Cached:
            n = len(labels)
            samples = np.arange(n)
            z0 = w @ a + b
            adds = [b[touched]]
            if above:
                h = np.maximum(z0[untouched], 0.0)
                adds.append(above[0][:, untouched] @ h + model.biases[layer + 1][:, None])
                adds += [bk[:, None] for bk in model.biases[layer + 2:]]
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
            # chunked by the widest array the set's path computes per candidate: the
            # K rows and the layers above, and all classes for softmax
            widest = max(self.widths) if count_only else max(*self.widths, self.n_classes)
            return _Cached(a, labels, samples, adds, others, row * n + samples,
                           label_add, fixed, fixed_best, label_is_fixed, fixed_label,
                           max(1, CHUNK_BYTES // (8 * widest * max(n, w.shape[1]))))

        self.neg = cache(layer_inputs(model, i_neg.features, layer).T.copy(), i_neg.labels, False)
        pos = cache(layer_inputs(model, i_pos.features, layer).T.copy(), i_pos.labels,
                    cfg.variant == "eq2")
        self.pos = (pos,)  # I_pos's parts: the whole set, or S and R
        if cfg.perfect_intact and len(i_pos) >= 4 * SCREEN:
            with np.errstate(over="ignore", invalid="ignore"):
                _, z, spare = next(self._products(pos, original, 1, len(self.rows)))
                margin = self._margins(z, pos, spare)[0]
            in_s = np.zeros(len(i_pos), dtype=bool)  # I_pos's samples that S holds
            in_s[np.argsort(margin, kind="stable")[:SCREEN]] = True
            # each I_pos sample's column among S's columns followed by R's
            self.unsplit = np.where(in_s, np.cumsum(in_s), SCREEN + np.cumsum(~in_s)) - 1
            # C order: a masked column copy is not, and products over it run slower
            self.pos = tuple(cache(np.ascontiguousarray(pos.a[:, part]), pos.labels[part],
                                   cfg.variant == "eq2") for part in (in_s, ~in_s))
        self.base_losses = None  # the identity's losses, set by its own call
        self.identity = self(original)

    def _products(self, c: _Cached, positions: np.ndarray, chunk: int, spare_rows: int):
        """Each `chunk` of `positions` on set `c`: its slice of the candidates, their
        computed logit rows' (chunk, rows, n) product before the last add, and a
        (chunk, spare_rows, n) spare that overlaps no product; all in the arena."""
        if len(self.stack) < chunk:  # the entries no candidate changes, written once
            self.stack = np.empty((chunk, *self.weights.shape))
            self.stack[...] = self.weights
        key = (chunk, len(c.labels), spare_rows)
        if key not in self.views:  # the z stacks and the spare, end to end in the arena
            shapes = [(chunk, rows, len(c.labels)) for rows in (*self.widths, spare_rows)]
            ends = np.cumsum([math.prod(shape) for shape in shapes])
            if len(self.arena) < ends[-1]:  # grown: the old arena's views go with it
                self.arena, self.views = np.empty(ends[-1]), {}
            self.views[key] = [self.arena[end - math.prod(shape):end].reshape(shape)
                               for shape, end in zip(shapes, ends)]
        *z_stacks, spare = self.views[key]
        for lo in range(0, len(positions), chunk):
            block = positions[lo:lo + chunk]
            n = len(block)
            weights = self.stack[:n]
            weights.reshape(n, -1)[:, self.flat] = block
            out = c.a
            for k, (w, add) in enumerate(zip([weights, *self.above], c.adds)):
                z = np.matmul(w, out, out=z_stacks[k][:n])
                if k < len(self.above):  # a hidden layer
                    z += add
                    out = np.maximum(z, 0.0, out=z)
            yield slice(lo, lo + n), z, spare[:n]

    def _set_scores(self, c: _Cached, positions: np.ndarray, count_only: bool):
        """Correct counts, label probabilities (None when count_only) and undefined
        flags of `positions` on set `c`, one entry or row per candidate."""
        counts = np.zeros(len(positions), dtype=np.int64)
        picked = None if count_only else np.empty((len(positions), len(c.labels)))
        undefined = np.zeros(len(positions), dtype=bool)
        chunk = max(1, min(c.chunk, len(positions)))
        # the spare is the count path's scratch, or the softmax output
        spare_rows = len(self.rows) if count_only else self.n_classes
        for cols, z, spare in self._products(c, positions, chunk, spare_rows):
            if count_only:
                counts[cols], undefined[cols] = self._count_from_logits(z, c, spare)
                continue
            out = self._softmax(z, c, spare)
            counts[cols] = np.add.reduce(out.argmax(axis=-2) == c.labels, axis=-1)
            picked[cols] = out[:, c.labels, c.samples]
            undefined[cols] = np.logical_or.reduce(np.isnan(picked[cols]), axis=-1)
        return counts, picked, undefined

    def _softmax(self, z: np.ndarray, c: _Cached, out: np.ndarray) -> np.ndarray:
        """Class probabilities of set `c`, (chunk, classes, n), written to `out`,
        from the computed logit rows' (chunk, rows, n) products `z` before the
        last add, which this adds in place; the fixed rows are filled in."""
        z += c.adds[-1]
        if c.fixed is not None:
            out[:, self.fixed_rows] = c.fixed
            out[:, self.rows] = z
            z = out
        return softmax(z, axis=-2, out=out)

    def _margins(self, z: np.ndarray, c: _Cached, spare: np.ndarray) -> np.ndarray:
        """Label margins of set `c`, (chunk, n): each sample's label logit less its
        best other logit, from the computed logit rows' (chunk, rows, n) products
        before the last add; `spare` is scratch of z's shape."""
        label_z = z.reshape(len(z), -1).take(c.at_label, axis=1) + c.label_add
        best = np.maximum.reduce(np.add(z, c.others, out=spare), axis=-2)
        if c.fixed is not None:
            np.copyto(label_z, c.fixed_label, where=c.label_is_fixed)
            np.maximum(best, c.fixed_best, out=best)
        return label_z - best

    def _count_from_logits(self, z: np.ndarray, c: _Cached, spare: np.ndarray):
        """Correct counts and undefined flags of set `c` from the computed logit
        rows' (chunk, rows, n) products before the last add, by label margin;
        `spare` is scratch of z's shape."""
        margin = self._margins(z, c, spare)
        size = np.abs(margin)
        correct = margin > BAND
        undefined = np.zeros(len(z), dtype=bool)
        # nan propagates through both reductions, so a nan margin fails this test too
        if BAND < np.minimum.reduce(size, axis=None) and np.maximum.reduce(size, axis=None) < np.inf:
            return np.add.reduce(correct, axis=-1), undefined  # no margin in the band
        unsure = ~np.isfinite(margin) | (size <= BAND)
        rows = np.flatnonzero(np.logical_or.reduce(unsure, axis=1))
        if rows.size:
            probs = self._softmax(z[rows], c, np.empty((len(rows), self.n_classes, z.shape[-1])))
            correct[rows] = np.where(unsure[rows], probs.argmax(axis=-2) == c.labels, correct[rows])
            undefined[rows] = np.logical_or.reduce(np.isnan(probs), axis=(-2, -1))
            self.telemetry["band_fallback_columns"] += int(np.count_nonzero(unsure))
        return np.add.reduce(correct, axis=-1), undefined

    def __call__(self, positions: np.ndarray, floor: np.ndarray | None = None) -> Scores:
        """Scores of a (P, D) array of candidate weight values. Without a
        floor, every candidate is scored in full, every loss included; with a
        (P,) `floor`, a candidate whose gated score could not beat its floor
        may be screened out or skip I_pos.

        The candidates still in play are one index vector, narrowed by the
        screen and by the bound; each stage gathers only what it reads, and
        each field of the scores is written once for the candidates that
        reached it."""
        p, cfg, (n_neg, n_pos) = len(positions), self.cfg, self.sizes
        self.telemetry["candidates_scored"] += p
        count_only = floor is not None and cfg.variant == "eq2"
        nonfinite = ~np.logical_and.reduce(np.isfinite(positions), axis=1)
        todo = np.arange(p)
        n_patched, n_intact = np.full((2, p), -1)
        loss_neg, loss_pos, raw = np.full((3, p), np.nan)
        gate = np.zeros(p, dtype=bool)
        *s, rest = self.pos
        with np.errstate(over="ignore", invalid="ignore"):
            if s:  # S first, for every candidate
                s_n, s_picked, s_bad = self._set_scores(s[0], positions, count_only)
                if floor is not None:
                    # a candidate that breaks I_pos scores 0 or -inf, no better than a floor
                    # >= 0: it is screened out, and the gate zeroes it
                    gate = (floor >= 0) & (s_n < len(s[0].labels)) & ~(nonfinite | s_bad)
                    self.telemetry["gate_screened"] += int(np.count_nonzero(gate))
                    todo = np.flatnonzero(~gate)
            neg_n, picked, bad = self._set_scores(self.neg, positions[todo], False)
            l_neg = loss_from_picked(picked)
            n_patched[todo], loss_neg[todo] = neg_n, l_neg
            bad |= nonfinite[todo]
            if floor is not None and self.bounded:
                # every I_pos sample intact, by the float operations of the raw score below
                best = raw_fitness(neg_n, n_neg, n_pos, n_pos,
                                   loss_ratio(self.base_losses[0], l_neg, cfg), np.nan, cfg)
                keep = (best > floor[todo]) & ~bad
                self.telemetry["pos_skipped"] += len(keep) - int(np.count_nonzero(keep))
                raw[todo[~keep & bad]] = -np.inf  # a skipped candidate stays nan unless undefined
                todo, neg_n, l_neg, bad = todo[keep], neg_n[keep], l_neg[keep], bad[keep]
            pos_n, picked, pos_bad = self._set_scores(rest, positions[todo], count_only)
            if s:  # add S's share of the same candidates
                pos_n += s_n[todo]
                pos_bad |= s_bad[todo]
                if not count_only:  # the label probabilities back in I_pos order, in C order
                    picked = np.concatenate([s_picked[todo], picked], axis=1)
                    picked = picked.take(self.unsplit, axis=1)
            n_intact[todo] = pos_n
            if not count_only:
                loss_pos[todo] = l_pos = loss_from_picked(picked)
            if self.base_losses is None:  # the identity's own call
                self.base_losses = (float(l_neg[0]), float(l_pos[0]))
            r_pos = loss_ratio(self.base_losses[1], l_pos, cfg) if cfg.variant == "eq1" else np.nan
            scored = raw_fitness(neg_n, n_neg, pos_n, n_pos,
                                 loss_ratio(self.base_losses[0], l_neg, cfg), r_pos, cfg)
            scorable = np.isfinite(scored) & ~(bad | pos_bad)
            raw[todo] = np.where(scorable, scored, -np.inf)
            if cfg.perfect_intact:
                gate[todo] = (pos_n < n_pos) & scorable
        return Scores(n_patched, n_intact, loss_neg, loss_pos, raw, np.where(gate, 0.0, raw), gate)


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
    mu, sigma = layer_weight_stats(model, localized.layer)
    n_original = (cfg.n_particles + 1) // 2
    sampled = rng.normal(mu, sigma, size=(cfg.n_particles - n_original, len(localized)))
    original = read_weights(model, localized.layer, localized.i, localized.j)
    positions = np.vstack([np.tile(original, (n_original, 1)), sampled])
    return positions, np.zeros_like(positions)


def repair(
    model: Model,
    localized: LocalizedSet,
    i_neg: Dataset,
    i_pos: Dataset,
    fcfg: FitnessConfig,
    scfg: SwarmConfig,
) -> RepairResult:
    """Global-best PSO over the localized weights.

    Synchronous updates: every particle moves against the previous
    iteration's global best, which is then re-reduced in fixed particle
    order (ties keep the incumbent). One stream seeded by `scfg.seed` draws
    the sampled initial positions, then per iteration a (P, D) uniform block
    for the cognitive term and one for the social term. A patch must fix
    something: unless gbest strictly beats the identity patch and fixes more
    I_neg samples, the original model is returned unchanged. The search
    scores only what the objective reads; the returned breakdown has every
    loss. An empty localized set runs no search: the identity's breakdown
    comes back with no trace and every counter 0.
    """
    scorer = BatchScorer(model, localized, i_neg, i_pos, fcfg)
    if len(localized) == 0:
        return RepairResult(model, scorer.identity.breakdown(0, scorer.base_losses), (), None,
                            dict.fromkeys(TELEMETRY, 0))
    rng = np.random.default_rng(scfg.seed)
    pos, vel = init_swarm(localized, model, scfg, rng)
    vmax = VELOCITY_CLAMP * layer_weight_stats(model, localized.layer)[1]
    pbest_pos, pbest_fit = pos.copy(), np.full(len(pos), -np.inf)
    gbest, gbest_pos, trace = None, None, []
    pulls, gap = np.empty((2, *pos.shape)), np.empty_like(pos)  # updated in place
    for it in range(scfg.n_iterations + 1):
        if it:
            # INERTIA * vel + COGNITIVE * r1 * (pbest_pos - pos) + SOCIAL * r2 * (gbest_pos - pos),
            # by the same float operations; `random` draws what `uniform` would
            rng.random(out=pulls)
            pulls[0] *= COGNITIVE
            pulls[0] *= np.subtract(pbest_pos, pos, out=gap)
            pulls[1] *= SOCIAL
            pulls[1] *= np.subtract(gbest_pos, pos, out=gap)
            vel *= INERTIA
            vel += pulls[0]
            vel += pulls[1]
            np.clip(vel, -vmax, vmax, out=vel)
            pos += vel
        scores = scorer(pos, floor=pbest_fit)
        improved = scores.gated > pbest_fit
        np.copyto(pbest_fit, scores.gated, where=improved)
        np.copyto(pbest_pos, pos, where=improved[:, None])
        # a particle that overtakes gbest improved just now, so `scores` holds its pbest
        # scored on both sets: a screened or skipped candidate does not beat its floor
        k = int(np.argmax(pbest_fit))
        if gbest is None or pbest_fit[k] > gbest.gated_fitness:
            gbest, gbest_pos = scores.breakdown(k, scorer.base_losses), pbest_pos[k].copy()
        trace.append(TraceRow(it, gbest.gated_fitness, gbest.n_patched, gbest.n_intact,
                              int(np.count_nonzero(scores.gate)), int(np.count_nonzero(improved))))

    if gbest.gated_fitness > scorer.identity.gated[0] and gbest.n_patched > scorer.identity.n_patched[0]:
        patched = write_weights(model, localized.layer, localized.i, localized.j, gbest_pos)
        best = scorer(gbest_pos[None])
    else:
        patched, best, gbest_pos = model, scorer.identity, None
    return RepairResult(patched, best.breakdown(0, scorer.base_losses), tuple(trace), gbest_pos,
                        scorer.telemetry)


def write_trace_csv(trace, path) -> None:
    names = [f.name for f in fields(TraceRow)]
    write_csv(path, [names, *([getattr(row, n) for n in names] for row in trace)])
