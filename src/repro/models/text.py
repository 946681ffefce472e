"""Job-name featurization: Levenshtein distance and affinity propagation.

The Workload Estimate Model handles "extremely sparse and high-dimensional
features like job names" by converting them with Levenshtein distance and
bucketizing similar names with affinity propagation (§3.5.3, citing
Frey & Dueck 2007).  Recurring hyper-parameter-search jobs differ only in
run suffixes, so edit-distance clustering recovers the template structure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np


#: DP cells (positions x pairs) per chunk, which keeps a chunk's buffers
#: within a few MB of cache.  A chunk holds at least ``_MIN_CHUNK_PAIRS``
#: pairs all the same: the insertion chain costs one numpy call per
#: position and step, and each call should do real work.
_CHUNK_CELLS = 1 << 17
_MIN_CHUNK_PAIRS = 2048


def _encode(names: Sequence[str]) -> List[bytes]:
    return [s.encode("utf-8", "replace") for s in names]


def _byte_lengths(names: Sequence[str]) -> List[int]:
    """UTF-8 lengths of ``names``: the unit the edit distances count in."""
    return [len(e) for e in _encode(names)]


def _pair_distances(encoded: Sequence[bytes], first: np.ndarray,
                    second: np.ndarray) -> np.ndarray:
    """Edit distances of the byte strings ``encoded[first[k]]`` and
    ``encoded[second[k]]``, batched over every pair ``k`` at once.

    Each pair runs the DP with its shorter string as the reference and
    the longer one as the target.  Rows are kept shifted,
    ``r[j] = D[step, j] - j``, so one reference step is

        cand[j] = min(r[j-1] - match[j], r[j] + 1)     (substitute, delete)
        r[0]    = step
        r[j]    = min(r[j-1], cand[j])                 (insert)

    The arrays are DP-position-major, so each step is a few in-place
    numpy calls across all pairs plus one call per target position for
    the insertion chain (numpy's ``minimum.accumulate`` along the
    position axis is an order of magnitude slower).  Pairs are sorted by
    reference length: a pair whose reference is exhausted leaves the
    active suffix and its column keeps ``D[len(ref), :]``.  Every value
    stays within ``±(longest + 1)``, so the DP runs in int16 unless some
    string is 32k bytes or longer.
    """
    if first.size == 0:
        return np.empty(0, dtype=np.int64)
    lens = np.array([len(e) for e in encoded], dtype=np.intp)
    swap = lens[first] > lens[second]
    ref = np.where(swap, second, first)
    tgt = np.where(swap, first, second)
    order = np.argsort(lens[ref], kind="stable")
    ref, tgt = ref[order], tgt[order]
    ref_lens, tgt_lens = lens[ref], lens[tgt]
    longest = int(lens.max())
    dtype = np.int16 if longest < np.iinfo(np.int16).max else np.int64
    padded = np.zeros((len(encoded), longest), dtype=np.uint8)
    for row, enc in zip(padded, encoded):
        row[:len(enc)] = np.frombuffer(enc, dtype=np.uint8)
    chunk = max(_MIN_CHUNK_PAIRS, _CHUNK_CELLS // (longest + 1))
    dists = np.empty(first.size, dtype=np.int64)
    for lo in range(0, first.size, chunk):
        c_ref_lens = ref_lens[lo:lo + chunk]
        c_tgt_lens = tgt_lens[lo:lo + chunk]
        width = int(c_tgt_lens.max())
        target = padded[tgt[lo:lo + chunk], :width].T.copy()
        refs = padded[ref[lo:lo + chunk], :int(c_ref_lens[-1])].T.copy()
        r = np.zeros((width + 1, target.shape[1]), dtype=dtype)
        cand = np.empty(target.shape, dtype=dtype)
        match = np.empty(target.shape, dtype=bool)
        for step, ref_bytes in enumerate(refs, start=1):
            a = int(np.searchsorted(c_ref_lens, step))
            r_a, cand_a, match_a = r[:, a:], cand[:, a:], match[:, a:]
            np.equal(target[:, a:], ref_bytes[a:], out=match_a)
            np.subtract(r_a[:-1], match_a, out=cand_a)
            np.add(r_a[1:], 1, out=r_a[1:])
            np.minimum(cand_a, r_a[1:], out=cand_a)
            r_a[0] = step
            for j in range(width):
                np.minimum(r_a[j], cand_a[j], out=r_a[j + 1])
        dists[lo:lo + chunk] = r[c_tgt_lens, np.arange(r.shape[1])] \
            + c_tgt_lens
    out = np.empty_like(dists)
    out[order] = dists
    return out


def levenshtein(a: str, b: str) -> int:
    """Edit distance between the UTF-8 bytes of two strings
    (insert/delete/substitute = 1)."""
    return int(_pair_distances(_encode([a, b]), np.array([0]),
                               np.array([1]))[0])


def levenshtein_distance_matrix(names: Sequence[str],
                                others: Optional[Sequence[str]] = None
                                ) -> np.ndarray:
    """Edit distances between name lists, in one batched DP call.

    Without ``others`` the result is the symmetric all-pairs matrix of
    ``names``, and each unordered pair is computed once.  With ``others``
    it is the ``len(names) x len(others)`` rectangle.  Batching all pairs
    into one DP keeps a few hundred unique job names well under a second.
    """
    n = len(names)
    if others is None:
        out = np.zeros((n, n), dtype=np.int64)
        first, second = np.triu_indices(n, 1)
        dists = _pair_distances(_encode(names), first, second)
        out[first, second] = dists
        out[second, first] = dists
        return out
    m = len(others)
    first = np.repeat(np.arange(n), m)
    second = np.tile(np.arange(n, n + m), n)
    dists = _pair_distances(_encode(list(names) + list(others)), first,
                            second)
    return dists.reshape(n, m)


def levenshtein_similarity_matrix(names: Sequence[str]) -> np.ndarray:
    """Negative normalized edit distance between all name pairs.

    Affinity propagation maximizes similarity, so distances are negated;
    normalizing by the longer string keeps scales comparable across short
    and long names.  Lengths are UTF-8 byte counts, like the distances,
    so a normalized distance never exceeds 1.
    """
    n = len(names)
    if n == 0:
        return np.zeros((0, 0))
    distances = levenshtein_distance_matrix(names).astype(float)
    lens = np.maximum(np.array(_byte_lengths(names), dtype=float), 1.0)
    longer = np.maximum(lens[:, None], lens[None, :])
    sim = -distances / longer
    np.fill_diagonal(sim, 0.0)
    return sim


class AffinityPropagation:
    """Affinity propagation clustering (Frey & Dueck, Science 2007).

    Parameters
    ----------
    damping:
        Message damping factor in [0.5, 1).
    max_iter, convergence_iter:
        Iteration budget and stability window.
    preference:
        Self-similarity; lower values yield fewer exemplars.  Defaults to
        the median of the off-diagonal similarities.
    """

    def __init__(self, damping: float = 0.7, max_iter: int = 200,
                 convergence_iter: int = 15,
                 preference: Optional[float] = None) -> None:
        if not 0.5 <= damping < 1.0:
            raise ValueError("damping must be in [0.5, 1)")
        self.damping = damping
        self.max_iter = max_iter
        self.convergence_iter = convergence_iter
        self.preference = preference
        self.labels_: Optional[np.ndarray] = None
        self.exemplars_: Optional[np.ndarray] = None

    def fit(self, similarity: np.ndarray) -> "AffinityPropagation":
        S = np.array(similarity, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("similarity must be a square matrix")
        n = S.shape[0]
        if n == 0:
            raise ValueError("empty similarity matrix")
        if n == 1:
            self.labels_ = np.zeros(1, dtype=int)
            self.exemplars_ = np.zeros(1, dtype=int)
            return self
        pref = self.preference
        if pref is None:
            off_diag = S[~np.eye(n, dtype=bool)]
            pref = float(np.median(off_diag))
        np.fill_diagonal(S, pref)
        # Tiny deterministic jitter breaks ties (as in the reference impl).
        rng = np.random.default_rng(0)
        S = S + 1e-12 * rng.standard_normal((n, n)) * (np.abs(S).max() + 1e-12)

        A = np.zeros((n, n))  # availabilities
        R = np.zeros((n, n))  # responsibilities
        stable_rounds = 0
        last_exemplars: Optional[np.ndarray] = None
        for _ in range(self.max_iter):
            # Responsibilities.
            AS = A + S
            idx_max = np.argmax(AS, axis=1)
            first_max = AS[np.arange(n), idx_max]
            AS[np.arange(n), idx_max] = -np.inf
            second_max = AS.max(axis=1)
            R_new = S - first_max[:, None]
            R_new[np.arange(n), idx_max] = S[np.arange(n), idx_max] - second_max
            R = self.damping * R + (1 - self.damping) * R_new
            # Availabilities.
            Rp = np.maximum(R, 0.0)
            np.fill_diagonal(Rp, R.diagonal())
            col_sums = Rp.sum(axis=0)
            A_new = np.minimum(0.0, col_sums[None, :] - Rp)
            np.fill_diagonal(A_new, col_sums - Rp.diagonal())
            A = self.damping * A + (1 - self.damping) * A_new

            exemplars = np.flatnonzero(np.diag(A + R) > 0)
            if last_exemplars is not None and np.array_equal(exemplars,
                                                             last_exemplars):
                stable_rounds += 1
                if stable_rounds >= self.convergence_iter and exemplars.size:
                    break
            else:
                stable_rounds = 0
            last_exemplars = exemplars

        if last_exemplars is None or last_exemplars.size == 0:
            # Degenerate case: everything in one cluster around the best row.
            exemplar = int(np.argmax(S.sum(axis=1)))
            self.exemplars_ = np.array([exemplar])
            self.labels_ = np.zeros(n, dtype=int)
            return self
        exemplars = last_exemplars
        labels = np.argmax(S[:, exemplars], axis=1)
        labels[exemplars] = np.arange(exemplars.size)
        self.labels_ = labels.astype(int)
        self.exemplars_ = exemplars
        return self


def cluster_job_names(names: Sequence[str],
                      max_unique: int = 400) -> Dict[str, int]:
    """Bucketize job names into dense integer cluster ids.

    Unique names are clustered by affinity propagation over Levenshtein
    similarity; the mapping covers every input name.  When the unique-name
    population exceeds ``max_unique``, clustering runs on the most frequent
    names and the remainder is assigned to its nearest exemplar, keeping
    the O(n²) similarity computation bounded.
    """
    unique: List[str] = []
    counts: Dict[str, int] = {}
    for name in names:
        if name not in counts:
            unique.append(name)
        counts[name] = counts.get(name, 0) + 1
    if not unique:
        return {}
    if len(unique) == 1:
        return {unique[0]: 0}

    core = sorted(unique, key=lambda n: -counts[n])[:max_unique]
    sim = levenshtein_similarity_matrix(core)
    ap = AffinityPropagation().fit(sim)
    mapping = {name: int(label) for name, label in zip(core, ap.labels_)}
    rest = [name for name in unique if name not in mapping]
    if rest:
        # Nearest exemplar by normalized distance; argmin keeps the first
        # strict minimum on ties.
        exemplars = [core[i] for i in ap.exemplars_]
        dist = levenshtein_distance_matrix(rest, exemplars)
        longer = np.maximum.outer(_byte_lengths(rest),
                                  _byte_lengths(exemplars))
        nearest = np.argmin(dist / np.maximum(longer, 1), axis=1)
        mapping.update(zip(rest, nearest.tolist()))
    return mapping
