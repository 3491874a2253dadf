"""Expected residual uncertainty of question (sets).

This is the objective every selection policy optimizes (§III of the paper):
``R_q(T_K)`` — the expected uncertainty of the tree after asking ``q`` and
pruning with the answer — and its generalization ``R_Q`` to question sets.

Single questions are a two-outcome expectation.  For sets we avoid the
``2^B`` answer-vector blow-up: each ordering of the space induces an answer
*pattern* in ``{+1, −1, 0}^B``, so at most ``L`` (= number of orderings)
distinct answer combinations actually have support.  ``R_Q`` is the
pattern-mass-weighted expectation of the measure over the compatible
sub-spaces (exact whenever all orderings are decisive on all questions,
e.g. when ``K = N``; the canonical tractable reading otherwise).

Batched evaluation
------------------
Policies score *every* candidate per step without building throwaway
:class:`~repro.tpo.space.OrderingSpace` objects: an answer outcome keeps a
subset of the paths, i.e. one boolean mask row priced by
:meth:`~repro.uncertainty.base.UncertaintyMeasure.evaluate_restrictions`.
A measure with additive per-path terms (``U_H``: ``p`` and ``p·ln p``)
skips the masks.  :meth:`ResidualEvaluator.rank_singles_batch` multiplies
the ``(L, B)`` stance matrix (a session's question-pool columns) and its
absolute value by the terms, which gives the kept sums of both answer
branches of every candidate; a measure without terms masks the ``L``
paths per branch instead.  The set paths
(:meth:`ResidualEvaluator.set_residual_from_codes`,
:meth:`ResidualEvaluator.rank_set_extensions`) mask *cells*: the paths
sharing one answer pattern.  A pattern's restriction is the union of the
cells it agrees with wherever both are decisive, so its row is only as
wide as the cells.  Uncapped set extensions of a measure with terms skip
the masks too: cell ``(b, s)`` of ``S ∪ {c}`` keeps ``(b′, s′)`` iff base
cells ``b`` and ``b′`` are compatible and ``s·s′ ≠ −1``, so one product
of the base-compatibility matrix with the per-cell term tables of every
candidate and stance prices all extensions of a greedy step.  Every
temporary is chunked by ``_rows_per_chunk``.

:meth:`ResidualEvaluator.single` prices one question the scalar way
(two restricted spaces); the test suite holds the batched paths to it,
and to a scalar set oracle, within 1e-9 across all registered measures
and TPO engines.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.questions.candidates import LiveQuestions
from repro.questions.model import Question
from repro.tpo.space import DegenerateSpaceError, OrderingSpace, _rows_per_chunk
from repro.uncertainty.base import UncertaintyMeasure


#: Columns folded into one base-3 key (``3**39 < 2**63``).
_DIGITS_PER_KEY = 39


def _pattern_ids(codes: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Dense answer-pattern id of every row of ``codes``, and the patterns.

    Up to :data:`_DIGITS_PER_KEY` columns fold into one base-3 key (digit
    ``code + 1``, first column most significant), and wider blocks are
    combined through dense ids, so ascending ids follow the lexicographic
    row order of ``np.unique(codes, axis=0)`` without sorting whole rows.
    """
    ids = np.zeros(codes.shape[0], dtype=np.int64)
    for start in range(0, codes.shape[1], _DIGITS_PER_KEY):
        key = np.zeros(codes.shape[0], dtype=np.int64)
        for column in codes[:, start : start + _DIGITS_PER_KEY].T:
            key *= 3
            key += column
            key += 1
        if start:
            _, prefix = np.unique(ids, return_inverse=True)
            _, key = np.unique(key, return_inverse=True)
            key += prefix * (int(key.max()) + 1)
        ids = key
    _, first, ids = np.unique(ids, return_index=True, return_inverse=True)
    return ids, codes[first]


def select_min_residual(
    residuals: np.ndarray, slack: float = 0.0
) -> int:
    """Index of the chosen candidate under interval-aware tie-breaking.

    With ``slack == 0`` this is exactly ``argmin`` (first minimum in
    canonical candidate order — the historical deterministic rule).  On a
    beam-approximate space residuals are only known to within the
    measure's certified interval width, so candidates within ``slack`` of
    the minimum are treated as tied and the first of them in canonical
    order wins — selection cannot flap on noise the approximation itself
    introduced.  An infinite ``slack`` (the conservative base-measure
    fallback) therefore picks the first candidate.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size == 0:
        raise ValueError("no candidates to select from")
    if slack <= 0.0:
        return int(np.argmin(residuals))
    if not np.isfinite(slack):
        return 0
    best = float(residuals.min())
    return int(np.flatnonzero(residuals <= best + slack)[0])


class ResidualEvaluator:
    """Evaluates expected residual uncertainty under a fixed measure.

    Parameters
    ----------
    measure:
        The uncertainty measure ``U`` defining the objective.
    """

    def __init__(self, measure: UncertaintyMeasure) -> None:
        self.measure = measure
        #: Number of measure evaluations performed (cost accounting).
        #: Batched calls count one evaluation per hypothetical posterior.
        self.evaluations = 0
        #: Contradictory reliable answers swallowed by :meth:`apply_answer`
        #: (the space was left unchanged instead of being emptied).
        self.contradictions = 0
        #: Realized-value observers notified by :meth:`apply_answer`
        #: (see :meth:`attach_observer`).  Empty in every hot path.
        self._observers: list = []

    # ------------------------------------------------------------------
    # Realized-value hooks (the evaluation harness's instrumentation)
    # ------------------------------------------------------------------

    def attach_observer(self, observer: object) -> None:
        """Subscribe an observer to *real* answer applications.

        ``observer.on_answer(before, question, holds, accuracy, after)``
        is called once per :meth:`apply_answer` — the one place every
        committed answer flows through, for batch sessions and the
        interactive service alike — with the pre- and post-update spaces.
        Hypothetical posteriors priced during question scoring never
        trigger it, so an observer sees exactly the realized trajectory.
        This is the hook :mod:`repro.evals` builds calibration curves on
        (predicted residual reduction vs what the answer actually did).
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def detach_observer(self, observer: object) -> None:
        """Unsubscribe a previously attached observer (idempotent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------

    def uncertainty(self, space: OrderingSpace) -> float:
        """``U(T)`` itself (counted like any other evaluation)."""
        self.evaluations += 1
        return self.measure(space)

    def uncertainty_interval(
        self, space: OrderingSpace
    ) -> "tuple[float, float]":
        """Certified ``[lo, hi]`` for ``U(T)`` (see
        :meth:`UncertaintyMeasure.evaluate_interval`)."""
        self.evaluations += 1
        return self.measure.evaluate_interval(space)

    def ranking_slack(self, space: OrderingSpace) -> float:
        """Indifference slack for candidate selection on ``space``.

        Exact spaces get ``0.0`` — selection reduces to the historical
        ``argmin`` with zero extra measure work.  On a beam-approximate
        space the certified interval width of the measure bounds how far
        any residual can be from its exact value, so residuals closer
        than that are genuinely indistinguishable.
        """
        if space.lost_mass <= 0.0:
            return 0.0
        lo, hi = self.uncertainty_interval(space)
        return float(hi - lo)

    def single(self, space: OrderingSpace, question: Question) -> float:
        """``R_q(T) = Pr(yes)·U(T|yes) + Pr(no)·U(T|no)``.

        ``Pr(yes)`` is the normalized decisive mass (paths silent on the
        pair are consistent with either answer and survive both prunings).
        """
        codes = space.agreement_codes(question.i, question.j)
        mass_yes = float(space.probabilities[codes == 1].sum())
        mass_no = float(space.probabilities[codes == -1].sum())
        decisive = mass_yes + mass_no
        if decisive <= 0.0:
            # The question cannot prune anything: residual = current U.
            return self.uncertainty(space)
        p_yes = mass_yes / decisive
        residual = 0.0
        if p_yes > 0.0:
            residual += p_yes * self.uncertainty(space.restrict(codes != -1))
        if p_yes < 1.0:
            residual += (1.0 - p_yes) * self.uncertainty(
                space.restrict(codes != 1)
            )
        return residual

    def rank_singles_batch(
        self,
        space: OrderingSpace,
        questions: Sequence[Question],
        chunk: Optional[int] = None,
    ) -> np.ndarray:
        """``R_q`` for every candidate from two products per column chunk.

        Takes the ``(L, B)`` stance matrix from :meth:`codes_matrix`.  Per
        chunk of ``chunk`` columns (auto-sized from ``L`` when omitted) its
        float copy ``c`` multiplies the measure's per-path
        :meth:`~repro.uncertainty.base.UncertaintyMeasure.restriction_terms`
        twice: ``cᵀ·terms`` is the yes-side sums less the no-side ones and
        ``|c|ᵀ·terms`` their total, so each answer branch's kept sums are
        the space's totals less the other side's, and the first term
        column holds the decisive masses.  A measure with terms prices
        every branch from these sums (the ``sums`` of
        :meth:`~repro.uncertainty.base.UncertaintyMeasure.evaluate_restrictions`);
        any other measure is priced by chunked ``evaluate_restrictions``
        calls over the branches' keep masks, its masses from the same
        products with ``p`` as the only term.  No :class:`OrderingSpace`
        is built, and float temporaries stay within ``chunk × L``
        elements.  Values match per-candidate :meth:`single` to float
        precision.
        """
        count = len(questions)
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        if chunk is None:
            chunk = _rows_per_chunk(space.size)
        codes = self.codes_matrix(space, questions)
        terms = self.measure.restriction_terms(space)
        additive = terms is not None
        if terms is None:
            terms = space.probabilities[:, None]
        yes = np.empty((count, terms.shape[1]), dtype=np.float64)
        no = np.empty_like(yes)
        for start in range(0, count, chunk):
            block = slice(start, min(start + chunk, count))
            stances = codes[:, block].T.astype(np.float64)
            signed = stances @ terms
            unsigned = np.abs(stances, out=stances) @ terms
            yes[block] = 0.5 * (unsigned + signed)
            no[block] = 0.5 * (unsigned - signed)
        mass_yes, mass_no = yes[:, 0], no[:, 0]
        decisive = mass_yes + mass_no
        residuals = np.empty(count, dtype=np.float64)
        silent = decisive <= 0.0
        if np.any(silent):
            # Such questions cannot prune anything: residual = current U.
            residuals[silent] = self.uncertainty(space)
        active = ~silent
        yes_branch = active & (mass_yes > 0.0)
        no_branch = active & (mass_no > 0.0)
        u_yes = np.zeros(count, dtype=np.float64)
        u_no = np.zeros(count, dtype=np.float64)
        if additive:
            # "yes" keeps every path but the no side, and vice versa.  A
            # kept total below its branch's own mass is rounding: clamp it.
            totals = terms.sum(axis=0)
            for branch, other, mass, out in (
                (yes_branch, no, mass_yes, u_yes),
                (no_branch, yes, mass_no, u_no),
            ):
                kept = totals - other[branch]
                kept[:, 0] = np.maximum(kept[:, 0], mass[branch])
                out[branch] = self.measure.evaluate_restrictions(
                    space, sums=kept
                )
        else:
            for branch, excluded, out in (
                (yes_branch, -1, u_yes),
                (no_branch, 1, u_no),
            ):
                columns = np.flatnonzero(branch)
                for start in range(0, columns.size, chunk):
                    picked = columns[start : start + chunk]
                    out[picked] = self.measure.evaluate_restrictions(
                        space, codes[:, picked].T != excluded
                    )
        self.evaluations += int(np.count_nonzero(yes_branch))
        self.evaluations += int(np.count_nonzero(no_branch))
        p_yes = mass_yes / np.where(active, decisive, 1.0)
        residuals[active] = (
            p_yes[active] * u_yes[active]
            + (1.0 - p_yes[active]) * u_no[active]
        )
        return residuals

    # ------------------------------------------------------------------

    def codes_matrix(
        self, space: OrderingSpace, questions: Sequence[Question]
    ) -> np.ndarray:
        """``(L, B)`` stance matrix of every path on every question.

        Read-only.  A session's :class:`~repro.questions.candidates.LiveQuestions`
        on ``space`` hold it; otherwise it is built in one shot by
        :meth:`~repro.tpo.space.OrderingSpace.stance_matrix`.  Set policies
        (``C-off``, ``A*``, ``Exhaustive``) pass its column slices to
        :meth:`set_residual_from_codes`.
        """
        if isinstance(questions, LiveQuestions) and questions.space is space:
            return questions.stances
        if not questions:
            return np.zeros((space.size, 0), dtype=np.int8)
        i_indices = np.fromiter((q.i for q in questions), dtype=np.intp)
        j_indices = np.fromiter((q.j for q in questions), dtype=np.intp)
        return space.stance_matrix(i_indices, j_indices)

    def set_residual_from_codes(
        self,
        space: OrderingSpace,
        codes: np.ndarray,
        pattern_cap: Optional[int] = None,
    ) -> float:
        """``R_Q`` given a precomputed ``(L, B)`` stance matrix.

        The cells are the distinct answer patterns of ``codes``; the
        (capped) patterns are priced by :meth:`_price_cells`.  Values match
        a one-restricted-space-per-pattern evaluation to float precision.
        """
        if codes.shape[1] == 0:
            return self.uncertainty(space)
        cells, patterns = _pattern_ids(codes)
        masses = np.bincount(cells, weights=space.probabilities)
        residual, covered = self._price_cells(
            space, patterns, cells, masses, pattern_cap
        )
        if covered < 1.0 - 1e-12:
            residual += (1.0 - covered) * self.uncertainty(space)
        return residual

    def rank_set_extensions(
        self,
        space: OrderingSpace,
        codes: np.ndarray,
        base_columns: Sequence[int],
        candidate_columns: Sequence[int],
        pattern_cap: Optional[int] = None,
    ) -> np.ndarray:
        """``R_{S ∪ {c}}`` for every candidate column ``c`` at once.

        The greedy set policies (``C-off``, ``A*``) score every remaining
        candidate as an extension of the same already-chosen set ``S``,
        whose base patterns are computed once.  A measure declaring
        additive :meth:`~repro.uncertainty.base.UncertaintyMeasure.restriction_terms`
        (``U_H``) prices every uncapped extension at once
        (:meth:`_price_extensions_by_terms`); otherwise each extension's
        cells go through :meth:`_price_cells`.  Values match
        per-candidate :meth:`set_residual_from_codes` to float precision,
        including the tie resolution of a ``pattern_cap`` cut, and count
        the same evaluations.
        """
        base_ids, base_patterns = _pattern_ids(codes[:, list(base_columns)])
        terms = (
            self.measure.restriction_terms(space)
            if pattern_cap is None
            else None
        )
        if terms is None:
            results, covered = self._price_extensions_by_cells(
                space, codes, base_ids, base_patterns, candidate_columns,
                pattern_cap,
            )
        else:
            results, covered = self._price_extensions_by_terms(
                space, codes, base_ids, base_patterns, candidate_columns, terms
            )
        tail = covered < 1.0 - 1e-12
        if np.any(tail):
            results[tail] += (1.0 - covered[tail]) * self.uncertainty(space)
        return results

    def _price_extensions_by_cells(
        self,
        space: OrderingSpace,
        codes: np.ndarray,
        base_ids: np.ndarray,
        base_patterns: np.ndarray,
        candidate_columns: Sequence[int],
        pattern_cap: Optional[int],
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-extension weighted values and covered masses, one
        :meth:`_price_cells` call per candidate.

        Each extension's cells are ``3·base_pattern + stance`` ids,
        counted by ``bincount``.
        """
        n_ids = 3 * base_patterns.shape[0]
        compressed = np.empty(n_ids, dtype=np.intp)
        results = np.empty(len(candidate_columns), dtype=np.float64)
        covered = np.empty_like(results)
        for out_index, column in enumerate(candidate_columns):
            stances = codes[:, column]
            ids = base_ids * 3 + (stances.astype(np.intp) + 1)
            # Compress to ids realized by some path: ascending ids follow
            # np.unique's lexicographic order (base pattern, then stance
            # −1 < 0 < +1), so the capped argsort sees the *same* mass
            # array as set_residual_from_codes and breaks ties identically.
            realized = np.flatnonzero(np.bincount(ids, minlength=n_ids))
            masses = np.bincount(
                ids, weights=space.probabilities, minlength=n_ids
            )[realized]
            compressed[realized] = np.arange(realized.size)
            patterns = np.column_stack(
                (base_patterns[realized // 3], realized % 3 - 1)
            )
            results[out_index], covered[out_index] = self._price_cells(
                space, patterns, compressed[ids], masses, pattern_cap
            )
        return results, covered

    def _price_extensions_by_terms(
        self,
        space: OrderingSpace,
        codes: np.ndarray,
        base_ids: np.ndarray,
        base_patterns: np.ndarray,
        candidate_columns: Sequence[int],
        terms: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-extension weighted values and covered masses, all
        candidates priced by one chunked product per step.

        Cell ``(b, s)`` of ``S ∪ {c}`` keeps ``(b′, s′)`` iff base cells
        ``b`` and ``b′`` agree wherever both are decisive and
        ``s·s′ ≠ −1``: stance −1 keeps stances {−1, 0}, +1 keeps {0, +1}
        and 0 keeps the whole base cell.  So the ``m`` additive terms are
        summed per base cell, candidate and stance (one ``bincount``
        each) into the two kept sums of every candidate plus the base
        cell's total, and the base-compatibility matrix (row chunks of
        ``_rows_per_chunk``) multiplies those ``(n_base, m·(2·C + 1))``
        tables once.  Every positive-mass cell counts one evaluation, as
        on the cell path.  Candidates are chunked so the ``(L, C)`` ids
        and the tables stay within one chunk too.
        """
        candidates = np.asarray(candidate_columns, dtype=np.intp)
        n_paths, n_terms = terms.shape
        n_base = base_patterns.shape[0]
        signs = base_patterns.astype(np.float32)
        decisive = np.abs(signs)
        base_rows = _rows_per_chunk(n_base)
        per_chunk = _rows_per_chunk(max(n_paths, 3 * n_terms * n_base))
        base_totals = np.column_stack(
            [
                np.bincount(base_ids, weights=column, minlength=n_base)
                for column in terms.T
            ]
        )
        results = np.empty(candidates.size, dtype=np.float64)
        covered = np.empty_like(results)
        for start in range(0, candidates.size, per_chunk):
            block = candidates[start : start + per_chunk]
            count = block.size
            # Column 3·j + s + 1 of base cell b: candidate j, stance s.
            ids = codes[:, block].astype(np.intp)
            ids += np.arange(1, 3 * count, 3)
            ids += (base_ids * (3 * count))[:, None]
            ids = ids.ravel()
            # Per base cell: (−1, 0) and (0, +1) sums of every candidate,
            # then the cell's total; one slice per term.
            tables = np.empty((n_base, 2 * count + 1, n_terms), dtype=np.float64)
            for term in range(n_terms):
                cells = np.bincount(
                    ids,
                    weights=np.repeat(terms[:, term], count),
                    minlength=n_base * 3 * count,
                ).reshape(n_base, count, 3)
                if term == 0:
                    masses = cells
                tables[:, 0:-1:2, term] = cells[..., 0] + cells[..., 1]
                tables[:, 1:-1:2, term] = cells[..., 1] + cells[..., 2]
            tables[:, -1] = base_totals
            del ids
            tables = tables.reshape(n_base, -1)
            sums = np.empty_like(tables)
            for row in range(0, n_base, base_rows):
                rows = slice(row, row + base_rows)
                # Σ|r·c| = Σ r·c exactly when no question has r·c = −1.
                compatible = decisive[rows] @ decisive.T == (
                    signs[rows] @ signs.T
                )
                sums[rows] = compatible.astype(np.float64) @ tables
            sums = sums.reshape(n_base, 2 * count + 1, n_terms)
            kept = np.empty((n_base, count, 3, n_terms), dtype=np.float64)
            kept[:, :, 0] = sums[:, 0:-1:2]
            kept[:, :, 1] = sums[:, -1:]
            kept[:, :, 2] = sums[:, 1:-1:2]
            positive = masses > 0.0
            weighted = np.zeros_like(masses)
            weighted[positive] = masses[positive] * (
                self.measure.evaluate_restrictions(space, sums=kept[positive])
            )
            results[start : start + count] = weighted.sum(axis=(0, 2))
            covered[start : start + count] = masses.sum(axis=(0, 2))
            self.evaluations += int(np.count_nonzero(positive))
        return results, covered

    def _price_cells(
        self,
        space: OrderingSpace,
        patterns: np.ndarray,
        cells: np.ndarray,
        masses: np.ndarray,
        pattern_cap: Optional[int],
    ) -> "tuple[float, float]":
        """Mass-weighted measure over the heaviest ``pattern_cap`` patterns.

        ``patterns`` holds one distinct answer pattern per cell (ascending
        lexicographic order), ``cells`` maps each path to its cell and
        ``masses`` is each cell's probability.  Pattern ``r`` keeps every
        cell it agrees with wherever both are decisive.  Returns the
        weighted sum and the probability mass it covers.
        """
        order = np.argsort(-masses)
        if pattern_cap is not None:
            order = order[:pattern_cap]
        order = order[masses[order] > 0.0]
        signs = patterns.astype(np.float32)
        decisive = np.abs(signs)
        values = np.empty(order.size, dtype=np.float64)
        chunk = _rows_per_chunk(masses.size)
        for start in range(0, order.size, chunk):
            block = order[start : start + chunk]
            # Σ|r·c| = Σ r·c exactly when no question has r·c = −1.
            masks = decisive[block] @ decisive.T == signs[block] @ signs.T
            values[start : start + chunk] = (
                self.measure.evaluate_restrictions(space, masks, cells=cells)
            )
        self.evaluations += order.size
        return float(np.dot(masses[order], values)), float(masses[order].sum())

    # ------------------------------------------------------------------

    def apply_answer(
        self,
        space: OrderingSpace,
        question: Question,
        holds: bool,
        accuracy: float = 1.0,
    ) -> OrderingSpace:
        """Update a space with a received answer (prune or reweight).

        With ``accuracy == 1`` the disagreeing orderings are pruned; a
        contradictory answer (possible only if the assumed accuracy
        overstates the worker) leaves the space unchanged rather than
        emptying it, mirroring a deployment that must stay consistent.
        Swallowed contradictions are counted in :attr:`contradictions` so
        sessions can surface them instead of silently misreporting noisy
        crowds as clean.
        """
        if accuracy >= 1.0:
            try:
                updated = space.condition(question.i, question.j, holds)
            except DegenerateSpaceError:
                self.contradictions += 1
                updated = space
        else:
            updated = space.reweight_by_answer(
                question.i, question.j, holds, accuracy
            )
        for observer in self._observers:
            observer.on_answer(space, question, holds, accuracy, updated)
        return updated


__all__ = ["ResidualEvaluator", "select_min_residual"]
