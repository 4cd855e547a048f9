"""Output checks, each against a reference that does not share the code path.

Every check returns a list of failure messages; an empty list means the
output is correct. Each workload's ``check`` calls them after the measured
window. ``selftest.py`` feeds each one a deliberately wrong output to show
that it can fail.
"""

from __future__ import annotations

import numpy as np

from skqe import algebra, evaluation, model, oracle, training
from skqe.errors import DataError
from skqe.kg import SPLITS
from skqe.model import ForwardContext

LOSS_RTOL = 1e-9
LOSS_ATOL = 1e-12


def check_datasets(graph, datasets, rng, picks: int) -> list[str]:
    """``QueryDataset.verify`` plus brute-force answers for seeded queries.

    The brute force (``oracle.exhaustive_eval``) scans triples per candidate
    entity without a plan; it runs on ``picks`` seeded structures per dataset
    among those its size guard allows.
    """
    failures = []
    for dataset in datasets:
        try:
            dataset.verify()
        except DataError as exc:
            failures.append(f"{dataset.mode}: verify failed: {exc}")
        splits = ("train",) if dataset.mode == "train" else SPLITS
        groups = dataset.by_structure()
        allowed = sorted(
            s for s in groups
            if graph.num_entities ** (len(algebra.TEMPLATES[s].bound_vars) + 1)
            <= oracle.EXHAUSTIVE_GUARD
        )
        for structure in rng.choice(allowed, size=min(picks, len(allowed)), replace=False):
            samples = groups[str(structure)]
            sample = samples[int(rng.integers(len(samples)))]
            expected = oracle.exhaustive_eval(sample.instance, graph, splits)
            if set(sample.answers) != expected:
                failures.append(
                    f"{dataset.mode}: {sample.instance} answers differ from brute force "
                    f"({len(sample.answers)} vs {len(expected)})"
                )
    return failures


def frozen_batch_losses(dataset, params, config, rows_per_structure: int,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query loss of ``_group_forward`` and of numpy ``margin_loss``.

    The batch is frozen: the first rows of every structure, their first
    positive and seeded negatives. The reference embeds each query alone
    through the grounded plan and scores it with plain numpy.
    """
    rng = np.random.default_rng([seed, 2])
    samples = dataset.by_structure()
    program, reference = [], []
    for structure, group in training._prepare_groups(dataset).items():
        rows = np.arange(min(rows_per_structure, len(group.positives)))
        pos = np.array([group.positives[i][0] for i in rows], dtype=np.int64)
        neg = np.stack([
            training.sample_negatives(group.answers[i], config.negatives,
                                      params.config.num_entities, rng,
                                      config.filter_negatives)
            for i in rows
        ])
        ctx = ForwardContext(params, train=True)
        loss_vec, _, _ = training._group_forward(ctx, group, rows, pos, neg, config)
        program.extend(loss_vec.value.tolist())
        for i, row in enumerate(rows):
            qe = model.embed_instance(samples[structure][row].instance, params, config.union)
            reference.append(training.margin_loss(
                qe.branches,
                model.entity_embedding(int(pos[i]), params),
                [model.entity_embedding(int(z), params) for z in neg[i]],
                config.gamma,
            ))
    return np.asarray(program), np.asarray(reference)


def check_training(losses, params, program_losses, reference_losses) -> list[str]:
    """Finite step losses and parameters; frozen-batch loss equals the reference."""
    failures = []
    if not losses or not np.all(np.isfinite(losses)):
        failures.append("non-finite or missing training loss")
    bad = [name for name, array in params.arrays.items() if not np.all(np.isfinite(array))]
    if bad:
        failures.append(f"non-finite parameters: {bad}")
    if program_losses.shape != reference_losses.shape or not np.allclose(
            program_losses, reference_losses, rtol=LOSS_RTOL, atol=LOSS_ATOL):
        gap = (np.max(np.abs(program_losses - reference_losses))
               if program_losses.shape == reference_losses.shape else "shape")
        failures.append(f"frozen-batch loss differs from margin_loss (max gap {gap})")
    return failures


def check_ranking(report, dataset, params, rng, picks: int) -> list[str]:
    """Rank counts per structure, and seeded queries re-ranked one at a time
    with ``model.score_entities`` + ``evaluation.rank_hard_answers``."""
    failures = []
    located = []  # (structure, offset into that structure's rank list, sample)
    for structure, samples in dataset.by_structure().items():
        expected = sum(len(s.hard) for s in samples)
        got = len(report.ranks.get(structure, []))
        if got != expected:
            failures.append(f"{structure}: {got} ranks for {expected} hard answers")
        offset = 0
        for sample in samples:
            located.append((structure, offset, sample))
            offset += len(sample.hard)
    for pick in rng.choice(len(located), size=min(picks, len(located)), replace=False):
        structure, offset, sample = located[int(pick)]
        qe = model.embed_instance(sample.instance, params, "dnf")
        want = evaluation.rank_hard_answers(qe, sample, params)
        got = list(report.ranks.get(structure, [])[offset:offset + len(sample.hard)])
        if got != want:
            failures.append(f"{sample.instance}: ranks {got} != reference {want}")
    return failures

