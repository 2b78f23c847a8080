"""Matrix partitioning.

Copernicus never compresses a large matrix whole: formats such as CSR
would pay per-row metadata even for all-zero rows, so the matrix is
tiled into ``p x p`` partitions, all-zero partitions are dropped, and
each non-zero partition is compressed and streamed independently
(Section 4.1).  ``p`` (8, 16 or 32) is the main hyperparameter.

Two views of the same tiling are provided:

* :func:`partition_matrix` materializes each non-zero tile as a
  :class:`~repro.matrix.SparseMatrix` — exact, used by functional SpMV,
  examples, and round-trip tests.
* :func:`profile_table` computes, fully vectorized, the per-tile
  statistics the hardware model needs (non-zeros, non-zero rows, block
  and diagonal counts, ...) without building the tiles, and keeps them
  columnar in a :class:`ProfileTable` — this is what makes 8000 x 8000
  workloads tractable and lets the hardware model evaluate its
  closed-form cycle/size formulas over whole matrices in one shot.
  :meth:`ProfileTable.profiles` materializes the per-object view, one
  :class:`PartitionProfile` per tile, for the scalar reference models.

The module also computes the paper's Figure-3 "density and spatial
locality" statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PartitionError
from .matrix import SparseMatrix

__all__ = [
    "PARTITION_SIZES",
    "Partition",
    "PartitionProfile",
    "PROFILE_COLUMNS",
    "ProfileTable",
    "ProfileAccumulator",
    "PartitionStatistics",
    "partition_matrix",
    "profile_table",
    "partition_statistics",
    "reassemble",
    "grid_shape",
    "count_partitions",
]

#: Partition sizes evaluated throughout the paper.
PARTITION_SIZES: tuple[int, ...] = (8, 16, 32)


def _check_partition_size(p: int) -> None:
    if p < 1:
        raise PartitionError(f"partition size must be >= 1, got {p}")


def grid_shape(shape: tuple[int, int], p: int) -> tuple[int, int]:
    """Number of partition rows and columns covering ``shape``."""
    _check_partition_size(p)
    return (-(-shape[0] // p), -(-shape[1] // p))


def count_partitions(shape: tuple[int, int], p: int) -> int:
    """Total tile count (zero and non-zero) covering ``shape``."""
    rows, cols = grid_shape(shape, p)
    return rows * cols


@dataclass(frozen=True)
class Partition:
    """One materialized non-zero tile.

    ``block`` always has shape ``(p, p)``; edge tiles are zero-padded so
    the dot-product engine width is uniform, matching the hardware.
    """

    grid_row: int
    grid_col: int
    block: SparseMatrix

    @property
    def nnz(self) -> int:
        return self.block.nnz


@dataclass(frozen=True)
class PartitionProfile:
    """Aggregate statistics of one non-zero tile.

    These are exactly the quantities the per-format latency and size
    models depend on; computing them without materializing tiles keeps
    full-matrix characterization linear in ``nnz``.

    Attributes
    ----------
    p:
        Tile edge length.
    nnz:
        Non-zero entries in the tile.
    nnz_rows / nnz_cols:
        Rows / columns holding at least one non-zero.
    max_row_nnz / max_col_nnz:
        Longest row / column (ELL width; LIL merge depth bound).
    n_blocks:
        Non-zero ``b x b`` blocks (BCSR).
    nnz_block_rows:
        Block-rows holding at least one non-zero block (BCSR).
    block_size:
        ``b`` used for the two block statistics.
    n_diagonals:
        Distinct diagonals holding data (DIA).
    dia_stored_len:
        Sum of the full lengths of every touched diagonal, zeros
        included (the ragged-storage lower bound).
    dia_max_len:
        Length of the longest touched diagonal; DIA's padded 2-D
        layout (Listing 7) transfers ``n_diagonals * dia_max_len``
        value slots.
    row_nnz_hist:
        Optional histogram of row lengths: ``row_nnz_hist[k - 1]`` is
        the number of rows with exactly ``k`` stored entries.  Needed
        only by the ELL-variant models (JDS, ELL+COO); the core
        formats work from the scalar statistics alone.
    """

    p: int
    nnz: int
    nnz_rows: int
    nnz_cols: int
    max_row_nnz: int
    max_col_nnz: int
    n_blocks: int
    nnz_block_rows: int
    block_size: int
    n_diagonals: int
    dia_stored_len: int
    dia_max_len: int
    row_nnz_hist: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.nnz < 1:
            raise PartitionError("a partition profile must hold data")
        if not (0 < self.nnz_rows <= self.p and 0 < self.nnz_cols <= self.p):
            raise PartitionError("non-zero row/col counts out of range")
        if self.row_nnz_hist:
            hist = self.row_nnz_hist
            if sum(hist) != self.nnz_rows:
                raise PartitionError(
                    "row histogram rows disagree with nnz_rows"
                )
            if sum(k * count for k, count in enumerate(hist, 1)) != self.nnz:
                raise PartitionError(
                    "row histogram entries disagree with nnz"
                )

    # ------------------------------------------------------------------
    # Row-histogram-derived statistics (ELL-variant models)
    # ------------------------------------------------------------------
    def _require_hist(self) -> tuple[int, ...]:
        if not self.row_nnz_hist:
            raise PartitionError(
                "this statistic needs row_nnz_hist; build the profile "
                "via profile_table() or of_block()"
            )
        return self.row_nnz_hist

    def ell_overflow(self, width: int) -> int:
        """Entries past the first ``width`` of their row (ELL+COO)."""
        if width < 1:
            raise PartitionError(f"width must be >= 1, got {width}")
        hist = self._require_hist()
        return sum(
            count * max(k - width, 0) for k, count in enumerate(hist, 1)
        )

    def jds_diagonal_lengths(self) -> tuple[int, ...]:
        """Rows participating in each jagged diagonal (JDS)."""
        hist = self._require_hist()
        return tuple(
            sum(count for k, count in enumerate(hist, 1) if k > j)
            for j in range(self.max_row_nnz)
        )

    @property
    def density(self) -> float:
        """Fraction of the tile's ``p * p`` entries that are non-zero."""
        return self.nnz / (self.p * self.p)

    @property
    def row_density(self) -> float:
        """Fraction of non-zero entries within the non-zero rows."""
        return self.nnz / (self.nnz_rows * self.p)

    @property
    def nnz_row_fraction(self) -> float:
        """Fraction of the tile's rows that are non-zero."""
        return self.nnz_rows / self.p

    @classmethod
    def of_block(cls, block: SparseMatrix, p: int, block_size: int = 4
                 ) -> "PartitionProfile":
        """Profile a single materialized tile (reference implementation)."""
        row_counts = block.row_nnz()
        col_counts = block.col_nnz()
        brows = block.rows // block_size
        bcols = block.cols // block_size
        blocks = np.unique(brows * p + bcols)
        diagonals = block.diagonals()
        lengths = [p - abs(int(d)) for d in diagonals]
        nonzero_row_counts = row_counts[row_counts > 0]
        hist = np.bincount(nonzero_row_counts, minlength=p + 1)[1:]
        return cls(
            p=p,
            nnz=block.nnz,
            nnz_rows=block.nnz_rows(),
            nnz_cols=block.nnz_cols(),
            max_row_nnz=int(row_counts.max()),
            max_col_nnz=int(col_counts.max()),
            n_blocks=int(blocks.size),
            nnz_block_rows=int(np.unique(brows).size),
            block_size=block_size,
            n_diagonals=int(diagonals.size),
            dia_stored_len=int(sum(lengths)),
            dia_max_len=int(max(lengths)),
            row_nnz_hist=tuple(int(c) for c in hist),
        )


def partition_matrix(matrix: SparseMatrix, p: int) -> list[Partition]:
    """Split ``matrix`` into non-zero ``p x p`` tiles (grid order)."""
    _check_partition_size(p)
    if not matrix.nnz:
        return []
    grid_rows, grid_cols = grid_shape(matrix.shape, p)
    pid = (matrix.rows // p) * grid_cols + (matrix.cols // p)
    order = np.argsort(pid, kind="stable")
    pid_sorted = pid[order]
    boundaries = np.nonzero(np.diff(pid_sorted))[0] + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [pid_sorted.size]])
    partitions = []
    for start, stop in zip(starts, stops):
        tile_id = int(pid_sorted[start])
        grid_row, grid_col = divmod(tile_id, grid_cols)
        idx = order[start:stop]
        block = SparseMatrix(
            (p, p),
            matrix.rows[idx] - grid_row * p,
            matrix.cols[idx] - grid_col * p,
            matrix.vals[idx],
        )
        partitions.append(Partition(grid_row, grid_col, block))
    return partitions


def reassemble(
    shape: tuple[int, int], partitions: list[Partition], p: int
) -> SparseMatrix:
    """Inverse of :func:`partition_matrix` (drops padding overflow)."""
    rows, cols, vals = [], [], []
    for part in partitions:
        block = part.block
        rows.append(block.rows + part.grid_row * p)
        cols.append(block.cols + part.grid_col * p)
        vals.append(block.vals)
    if not rows:
        return SparseMatrix.empty(shape)
    all_rows = np.concatenate(rows)
    all_cols = np.concatenate(cols)
    all_vals = np.concatenate(vals)
    keep = (all_rows < shape[0]) & (all_cols < shape[1])
    return SparseMatrix(shape, all_rows[keep], all_cols[keep], all_vals[keep])


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Indices where a run of equal consecutive ``keys`` tuples starts."""
    new_run = np.zeros(keys[0].size, dtype=bool)
    new_run[0] = True
    for key in keys:
        new_run[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new_run)


def _count_keys(
    keys: np.ndarray, size: int, limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Count the values of ``keys``, all in ``[0, size)``.

    Returns ``(counts, index)``: how often each distinct value occurs,
    in ascending order of value, and each key's position in that
    order.  A dense ``bincount`` table counts them when its ``size`` is
    at most ``limit``; otherwise one plain sort of the keys does, so
    working memory stays O(``keys.size + limit``) however large
    ``size`` is.
    """
    if size <= limit:
        counts = np.bincount(keys, minlength=size)
        distinct = np.flatnonzero(counts)
        rank = np.empty(size, dtype=np.int64)
        rank[distinct] = np.arange(distinct.size)
        return counts[distinct], rank[keys]
    ordered = np.sort(keys)
    starts = _run_starts(ordered)
    counts = np.diff(np.append(starts, ordered.size))
    return counts, np.searchsorted(ordered[starts], keys)


def _tile_key_stats(
    tile: np.ndarray,
    key: np.ndarray,
    width: int,
    n_tiles: int,
    limit: int,
    weights: "np.ndarray | None" = None,
) -> tuple[np.ndarray, ...]:
    """Per tile: how many distinct values ``key`` (in ``[0, width)``)
    takes, plus, given ``weights`` indexed by key, the sum and the
    maximum of the weights of those distinct keys.

    Counting follows :func:`_count_keys`'s rule: a dense key-major
    ``(width, n_tiles)`` presence table reduced along its first axis
    when it holds at most ``limit`` cells, else one plain sort of the
    ``tile * width + key`` pairs reduced per tile segment.
    """
    size = n_tiles * width
    if size <= limit:
        present = np.zeros(size, dtype=bool)
        present[key * n_tiles + tile] = True
        present = present.reshape(width, n_tiles)
        n_distinct = present.sum(axis=0)
        if weights is None:
            return (n_distinct,)
        weighted = present * weights[:, np.newaxis]
        return n_distinct, weighted.sum(axis=0), weighted.max(axis=0)
    combined = tile * width
    combined += key
    combined.sort()
    distinct = combined[_run_starts(combined)]
    owner = distinct // width
    n_distinct = np.bincount(owner, minlength=n_tiles)
    if weights is None:
        return (n_distinct,)
    offsets = np.cumsum(n_distinct) - n_distinct
    distinct_weights = weights[distinct - owner * width]
    return (
        n_distinct,
        np.add.reduceat(distinct_weights, offsets),
        np.maximum.reduceat(distinct_weights, offsets),
    )


#: A dense counting table may hold this many cells per entry before
#: :func:`profile_table` counts by sorting instead; the block,
#: block-row and diagonal tables may also hold as many cells as the
#: ``(n_tiles, p)`` row histogram.
DENSE_TABLE_FACTOR = 4

#: :func:`profile_table` works through a matrix in runs of whole tile
#: rows of about this many entries, so its working arrays stay small.
PROFILE_CHUNK = 1 << 16

#: 1-D integer columns of a :class:`ProfileTable`, in field order.
PROFILE_COLUMNS: tuple[str, ...] = (
    "nnz",
    "nnz_rows",
    "nnz_cols",
    "max_row_nnz",
    "max_col_nnz",
    "n_blocks",
    "nnz_block_rows",
    "n_diagonals",
    "dia_stored_len",
    "dia_max_len",
)


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Struct-of-arrays view of every non-zero tile's profile.

    Holds the same quantities as a list of :class:`PartitionProfile`
    records, but as ``(n,)`` int64 columns (plus the ``(n, p)``
    row-length histogram), so the per-format latency and size models
    can be evaluated over all tiles with numpy expressions instead of
    one Python call per tile.  ``p`` and ``block_size`` are uniform
    across a table by construction.

    :meth:`profiles` materializes the compatible per-object view
    lazily; batch and object views are exactly equivalent, which the
    differential test suite pins down.
    """

    p: int
    block_size: int
    nnz: np.ndarray
    nnz_rows: np.ndarray
    nnz_cols: np.ndarray
    max_row_nnz: np.ndarray
    max_col_nnz: np.ndarray
    n_blocks: np.ndarray
    nnz_block_rows: np.ndarray
    n_diagonals: np.ndarray
    dia_stored_len: np.ndarray
    dia_max_len: np.ndarray
    row_nnz_hist: np.ndarray

    def __post_init__(self) -> None:
        _check_partition_size(self.p)
        if self.block_size < 1:
            raise PartitionError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        for name in PROFILE_COLUMNS:
            column = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if column.ndim != 1:
                raise PartitionError(f"column {name} must be 1-D")
            object.__setattr__(self, name, column)
        hist = np.ascontiguousarray(self.row_nnz_hist, dtype=np.int64)
        if hist.ndim != 2 or hist.shape != (self.nnz.size, self.p):
            raise PartitionError(
                f"row_nnz_hist must have shape ({self.nnz.size}, {self.p}), "
                f"got {hist.shape}"
            )
        object.__setattr__(self, "row_nnz_hist", hist)
        lengths = {getattr(self, name).size for name in PROFILE_COLUMNS}
        if len(lengths) != 1:
            raise PartitionError(
                f"profile table columns disagree in length: {lengths}"
            )

    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        """Number of non-zero tiles in the table."""
        return self.nnz.size

    def __len__(self) -> int:
        return self.n_tiles

    def columns(self) -> dict[str, np.ndarray]:
        """The 1-D statistic columns by name (histogram excluded)."""
        return {name: getattr(self, name) for name in PROFILE_COLUMNS}

    # ------------------------------------------------------------------
    # Batch statistics used by the hardware models
    # ------------------------------------------------------------------
    def ell_overflow(self, width: int) -> np.ndarray:
        """Per tile: entries past the first ``width`` of their row."""
        if width < 1:
            raise PartitionError(f"width must be >= 1, got {width}")
        if np.any(self.row_nnz_hist.sum(axis=1) != self.nnz_rows):
            # all-zero rows mark profiles recorded without a histogram
            raise PartitionError(
                "this statistic needs row_nnz_hist; build the table "
                "via profile_table() or from fully-profiled tiles"
            )
        weights = np.maximum(np.arange(1, self.p + 1) - width, 0)
        return self.row_nnz_hist @ weights

    @property
    def density(self) -> np.ndarray:
        """Per tile: fraction of the ``p * p`` entries that are non-zero."""
        return self.nnz / float(self.p * self.p)

    @property
    def row_density(self) -> np.ndarray:
        """Per tile: fraction of non-zeros within the non-zero rows."""
        return self.nnz / (self.nnz_rows * self.p)

    @property
    def nnz_row_fraction(self) -> np.ndarray:
        """Per tile: fraction of the tile's rows that are non-zero."""
        return self.nnz_rows / self.p

    # ------------------------------------------------------------------
    # Object-view materialization (compatibility path)
    # ------------------------------------------------------------------
    def __getitem__(self, index: int) -> PartitionProfile:
        """Materialize the profile of one tile."""
        if not -self.n_tiles <= index < self.n_tiles:
            raise IndexError(index)
        return PartitionProfile(
            p=self.p,
            nnz=int(self.nnz[index]),
            nnz_rows=int(self.nnz_rows[index]),
            nnz_cols=int(self.nnz_cols[index]),
            max_row_nnz=int(self.max_row_nnz[index]),
            max_col_nnz=int(self.max_col_nnz[index]),
            n_blocks=int(self.n_blocks[index]),
            nnz_block_rows=int(self.nnz_block_rows[index]),
            block_size=self.block_size,
            n_diagonals=int(self.n_diagonals[index]),
            dia_stored_len=int(self.dia_stored_len[index]),
            dia_max_len=int(self.dia_max_len[index]),
            # an all-zero row marks a profile recorded without a
            # histogram (a real histogram always sums to nnz_rows >= 1)
            row_nnz_hist=(
                tuple(int(c) for c in self.row_nnz_hist[index])
                if self.row_nnz_hist[index].any()
                else ()
            ),
        )

    def __iter__(self):
        return iter(self.profiles())

    def profiles(self) -> list[PartitionProfile]:
        """The per-object view, materialized once and cached."""
        cached = self.__dict__.get("_profiles")
        if cached is None:
            cached = [self[t] for t in range(self.n_tiles)]
            self.__dict__["_profiles"] = cached
        return cached

    # ------------------------------------------------------------------
    @classmethod
    def from_profiles(
        cls, profiles: Sequence["PartitionProfile"]
    ) -> "ProfileTable":
        """Columnar view of already-materialized profiles.

        All profiles must share one partition size and block size; the
        error names the first offending tile so callers streaming
        mixed tilings can point at the culprit.
        """
        profiles = list(profiles)
        if not profiles:
            raise PartitionError(
                "cannot build a profile table from zero profiles; use "
                "profile_table() for possibly-empty matrices"
            )
        p = profiles[0].p
        block_size = profiles[0].block_size
        for index, profile in enumerate(profiles):
            if profile.p != p or profile.block_size != block_size:
                raise PartitionError(
                    f"profile {index} has (p={profile.p}, "
                    f"b={profile.block_size}) but the table is "
                    f"(p={p}, b={block_size})"
                )
        n = len(profiles)
        columns = {
            name: np.fromiter(
                (getattr(profile, name) for profile in profiles),
                dtype=np.int64,
                count=n,
            )
            for name in PROFILE_COLUMNS
        }
        hist = np.zeros((n, p), dtype=np.int64)
        for index, profile in enumerate(profiles):
            # profiles without a histogram keep an all-zero row; the
            # histogram-derived batch statistics reject such tables
            # exactly like the scalar accessors reject the profile.
            row = profile.row_nnz_hist
            hist[index, : len(row)] = row
        table = cls(p=p, block_size=block_size, row_nnz_hist=hist, **columns)
        table.__dict__["_profiles"] = profiles
        return table

    def __repr__(self) -> str:
        return (
            f"ProfileTable(p={self.p}, block_size={self.block_size}, "
            f"n_tiles={self.n_tiles})"
        )


def profile_table(
    matrix: SparseMatrix, p: int, block_size: int = 4
) -> ProfileTable:
    """Vectorized per-tile statistics, columnar, in grid order.

    Nothing is reordered.  :class:`SparseMatrix` is canonical
    (row-major, duplicate-free), so each band of ``p`` rows is a
    contiguous run of entries, and the matrix is profiled band group
    by band group (about ``PROFILE_CHUNK`` entries each) into tables
    that are concatenated in grid order; see :func:`_profile_bands`.
    """
    _check_partition_size(p)
    if block_size < 1:
        raise PartitionError(f"block_size must be >= 1, got {block_size}")
    if not matrix.nnz:
        empty = np.zeros(0, dtype=np.int64)
        return ProfileTable(
            p=p,
            block_size=block_size,
            row_nnz_hist=np.zeros((0, p), dtype=np.int64),
            **{name: empty for name in PROFILE_COLUMNS},
        )
    rows, cols = matrix.rows, matrix.cols
    grid_cols = grid_shape(matrix.shape, p)[1]
    # cut after the tile row holding every PROFILE_CHUNK-th entry
    cuts = np.arange(PROFILE_CHUNK, rows.size, PROFILE_CHUNK)
    cuts = np.searchsorted(rows, (rows[cuts] // p + 1) * p)
    bounds = [0, *cuts.tolist(), rows.size]
    parts = [
        _profile_bands(rows[start:stop], cols[start:stop], p, block_size,
                       grid_cols)
        for start, stop in zip(bounds[:-1], bounds[1:])
        if start < stop
    ]
    columns = parts[0] if len(parts) == 1 else [
        np.concatenate(column) for column in zip(*parts)
    ]
    return ProfileTable(
        p=p,
        block_size=block_size,
        row_nnz_hist=columns[-1].reshape(-1, p),
        **dict(zip(PROFILE_COLUMNS, columns)),
    )


def _profile_bands(
    rows: np.ndarray,
    cols: np.ndarray,
    p: int,
    block_size: int,
    grid_cols: int,
) -> tuple[np.ndarray, ...]:
    """:func:`profile_table`'s columns (histogram flat, last) for the
    entries of whole, consecutive tile rows, in canonical order.

    Each (row, tile column) segment of the canonical order is one
    contiguous run, one non-empty row of one tile: those runs give the
    row statistics.  Tile ids, ``b x b`` blocks, block rows and
    diagonals are counted (:func:`_count_keys`, :func:`_tile_key_stats`)
    with dense tables while a table stays within ``DENSE_TABLE_FACTOR``
    cells per entry (plus the row histogram's ``n_tiles * p`` once the
    tiles are known), otherwise with one plain sort — so a hypersparse
    matrix with a huge tile grid stays cheap.  The column count table
    is exactly ``n_tiles * p`` cells and always dense.
    """
    tile_cols = cols // p
    row_starts = _run_starts(rows, tile_cols)
    local_cols = tile_cols * -p
    local_cols += cols
    tile_rows = rows // p
    local_rows = tile_rows * -p
    local_rows += rows
    first_band = int(tile_rows[0])
    n_grid = (int(tile_rows[-1]) - first_band + 1) * grid_cols
    # grid-order tile id counted from this slice's first tile row,
    # built in place over tile_rows
    grid_id = tile_rows
    grid_id -= first_band
    grid_id *= grid_cols
    grid_id += tile_cols
    del tile_rows, tile_cols
    limit = DENSE_TABLE_FACTOR * rows.size
    nnz, tile = _count_keys(grid_id, n_grid, limit)
    del grid_id
    n_tiles = nnz.size
    limit += n_tiles * p

    row_len = np.diff(np.append(row_starts, rows.size))
    row_tile = tile[row_starts]
    nnz_rows = np.bincount(row_tile, minlength=n_tiles)
    max_row = np.zeros(n_tiles, dtype=np.int64)
    np.maximum.at(max_row, row_tile, row_len)
    hist = np.bincount(row_tile * p + (row_len - 1), minlength=n_tiles * p)
    block_cols = -(-p // block_size)
    (nnz_block_rows,) = _tile_key_stats(
        row_tile, local_rows[row_starts] // block_size, block_cols,
        n_tiles, limit,
    )
    del row_starts, row_len, row_tile

    # a (p, n_tiles) count table is no larger than the histogram
    col_counts = np.bincount(
        local_cols * n_tiles + tile, minlength=p * n_tiles
    ).reshape(p, n_tiles)
    nnz_cols = np.count_nonzero(col_counts, axis=0)
    max_col = col_counts.max(axis=0)
    del col_counts
    block = local_rows // block_size
    block *= block_cols
    block += local_cols // block_size
    (n_blocks,) = _tile_key_stats(
        tile, block, block_cols * block_cols, n_tiles, limit
    )
    del block
    # diagonal offsets shifted into [0, 2p-1), weighted by their length
    local_cols -= local_rows
    local_cols += p - 1
    # int32 halves the (2p-1, n_tiles) weighted table
    diag_lengths = p - np.abs(np.arange(2 * p - 1, dtype=np.int32) - (p - 1))
    n_diagonals, stored, longest = _tile_key_stats(
        tile, local_cols, 2 * p - 1, n_tiles, limit, weights=diag_lengths
    )
    # field order of PROFILE_COLUMNS, then the histogram
    return (
        nnz, nnz_rows, nnz_cols, max_row, max_col, n_blocks,
        nnz_block_rows, n_diagonals, stored, longest, hist,
    )


def _merge_key_counts(
    keys_a: np.ndarray,
    counts_a: np.ndarray,
    keys_b: np.ndarray,
    counts_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two (sorted unique keys, counts) multisets by summation."""
    if not keys_a.size:
        return keys_b, counts_b
    if not keys_b.size:
        return keys_a, counts_a
    keys = np.concatenate([keys_a, keys_b])
    counts = np.concatenate([counts_a, counts_b])
    unique, inverse = np.unique(keys, return_inverse=True)
    summed = np.bincount(
        inverse, weights=counts, minlength=unique.size
    ).astype(np.int64)
    return unique, summed


class ProfileAccumulator:
    """Streaming construction of a :class:`ProfileTable`.

    Consumes ``(rows, cols)`` coordinate batches in any order and any
    grouping — an out-of-core reader feeds it one bounded batch at a
    time — and finalizes into a table **identical** to
    ``profile_table(matrix, p)`` on the materialized matrix.

    Every tile statistic is a function of per-(tile, key) entry counts
    for key in {local row, local column, ``b x b`` block, diagonal},
    and those counts merge associatively across batches.  The running
    state is therefore columnar: sorted ``pid * 2**32 + key`` arrays
    with counts, merged per batch — memory proportional to the number
    of *distinct* (tile, key) pairs seen so far, never to the raw
    entry count and never to Python-object parse overhead.

    Precondition: batches must not repeat a coordinate (canonical
    Matrix Market input — what :func:`repro.io.write_matrix_market`
    emits and SuiteSparse distributes).  Duplicate coordinates would
    be *summed* by :class:`SparseMatrix` but double-counted here.
    Explicit zero values must be filtered out by the caller (pass
    ``vals`` to :meth:`add` to do it here), matching the container's
    zero-dropping canonicalization.
    """

    def __init__(
        self, shape: tuple[int, int], p: int, block_size: int = 4
    ) -> None:
        _check_partition_size(p)
        if block_size < 1:
            raise PartitionError(
                f"block_size must be >= 1, got {block_size}"
            )
        if shape[0] < 0 or shape[1] < 0:
            raise PartitionError(f"negative shape {shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.p = p
        self.block_size = block_size
        self.n_entries = 0
        empty_keys = np.zeros(0, dtype=np.int64)
        empty_counts = np.zeros(0, dtype=np.int64)
        # per-(tile, local row) and per-(tile, local col) entry counts
        self._row_keys, self._row_counts = empty_keys, empty_counts
        self._col_keys, self._col_counts = (
            empty_keys.copy(),
            empty_counts.copy(),
        )
        # distinct (tile, block) / (tile, block-row) / (tile, diagonal)
        self._block_keys = empty_keys.copy()
        self._brow_keys = empty_keys.copy()
        self._diag_keys = empty_keys.copy()

    # ------------------------------------------------------------------
    def add(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: "np.ndarray | None" = None,
    ) -> None:
        """Fold one batch of coordinates into the running statistics.

        When ``vals`` is given, entries whose value is exactly zero
        are dropped first — the streaming equivalent of
        :class:`SparseMatrix`'s canonicalization.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise PartitionError(
                "rows and cols must be equal-length 1-D arrays"
            )
        if vals is not None:
            keep = np.asarray(vals) != 0.0
            rows, cols = rows[keep], cols[keep]
        if not rows.size:
            return
        if rows.min() < 0 or rows.max() >= self.shape[0]:
            raise PartitionError("row indices out of bounds")
        if cols.min() < 0 or cols.max() >= self.shape[1]:
            raise PartitionError("column indices out of bounds")
        self.n_entries += rows.size

        p = self.p
        grid_cols = grid_shape(self.shape, p)[1]
        pid = (rows // p) * grid_cols + (cols // p)
        local_rows = rows % p
        local_cols = cols % p
        base = pid * np.int64(2**32)

        batch_keys, batch_counts = np.unique(
            base + local_rows, return_counts=True
        )
        self._row_keys, self._row_counts = _merge_key_counts(
            self._row_keys, self._row_counts, batch_keys, batch_counts
        )
        batch_keys, batch_counts = np.unique(
            base + local_cols, return_counts=True
        )
        self._col_keys, self._col_counts = _merge_key_counts(
            self._col_keys, self._col_counts, batch_keys, batch_counts
        )

        block_size = self.block_size
        block_cols_per_tile = -(-p // block_size)
        block_key = (
            (local_rows // block_size) * block_cols_per_tile
            + (local_cols // block_size)
        )
        self._block_keys = np.union1d(
            self._block_keys, base + block_key
        )
        self._brow_keys = np.union1d(
            self._brow_keys, base + local_rows // block_size
        )
        diag = local_cols - local_rows + p  # shift into [1, 2p-1]
        self._diag_keys = np.union1d(self._diag_keys, base + diag)

    # ------------------------------------------------------------------
    @property
    def state_bytes(self) -> int:
        """Approximate resident size of the running columnar state."""
        arrays = (
            self._row_keys,
            self._row_counts,
            self._col_keys,
            self._col_counts,
            self._block_keys,
            self._brow_keys,
            self._diag_keys,
        )
        return sum(a.nbytes for a in arrays)

    def finalize(self) -> ProfileTable:
        """Materialize the table; identical to :func:`profile_table`."""
        p = self.p
        if not self._row_keys.size:
            empty = np.zeros(0, dtype=np.int64)
            return ProfileTable(
                p=p,
                block_size=self.block_size,
                row_nnz_hist=np.zeros((0, p), dtype=np.int64),
                **{name: empty for name in PROFILE_COLUMNS},
            )
        # every non-empty tile has at least one (tile, row) pair, so
        # the sorted row keys enumerate the tile ids in runs — ascending,
        # exactly the grid order profile_table uses
        row_owner_ids = self._row_keys // np.int64(2**32)
        tile_ids = row_owner_ids[_run_starts(row_owner_ids)]
        n_tiles = tile_ids.size

        def dense(keys: np.ndarray) -> np.ndarray:
            return np.searchsorted(tile_ids, keys // np.int64(2**32))

        row_owner = dense(self._row_keys)
        nnz = np.zeros(n_tiles, dtype=np.int64)
        np.add.at(nnz, row_owner, self._row_counts)
        nnz_rows = np.bincount(row_owner, minlength=n_tiles)
        max_row = np.zeros(n_tiles, dtype=np.int64)
        np.maximum.at(max_row, row_owner, self._row_counts)
        hist_matrix = np.zeros((n_tiles, p), dtype=np.int64)
        np.add.at(hist_matrix, (row_owner, self._row_counts - 1), 1)

        col_owner = dense(self._col_keys)
        nnz_cols = np.bincount(col_owner, minlength=n_tiles)
        max_col = np.zeros(n_tiles, dtype=np.int64)
        np.maximum.at(max_col, col_owner, self._col_counts)

        n_blocks = np.bincount(
            dense(self._block_keys), minlength=n_tiles
        )
        nnz_block_rows = np.bincount(
            dense(self._brow_keys), minlength=n_tiles
        )

        diag_owner = dense(self._diag_keys)
        diag_offset = (
            self._diag_keys % np.int64(2**32)
        ).astype(np.int64) - p
        n_diagonals = np.bincount(diag_owner, minlength=n_tiles)
        diag_lengths = p - np.abs(diag_offset)
        stored = np.zeros(n_tiles, dtype=np.int64)
        np.add.at(stored, diag_owner, diag_lengths)
        longest = np.zeros(n_tiles, dtype=np.int64)
        np.maximum.at(longest, diag_owner, diag_lengths)

        return ProfileTable(
            p=p,
            block_size=self.block_size,
            nnz=nnz,
            nnz_rows=nnz_rows,
            nnz_cols=nnz_cols,
            max_row_nnz=max_row,
            max_col_nnz=max_col,
            n_blocks=n_blocks,
            nnz_block_rows=nnz_block_rows,
            n_diagonals=n_diagonals,
            dia_stored_len=stored,
            dia_max_len=longest,
            row_nnz_hist=hist_matrix,
        )


@dataclass(frozen=True)
class PartitionStatistics:
    """The Figure-3 aggregate statistics of one matrix at one tile size.

    All three are averages over the *non-zero* tiles, expressed as
    percentages like the paper's bars.
    """

    p: int
    n_partitions: int
    n_nonzero_partitions: int
    avg_partition_density: float
    avg_row_density: float
    avg_nnz_row_fraction: float

    @property
    def nonzero_partition_fraction(self) -> float:
        """Share of tiles that carry any data (the locality win)."""
        if not self.n_partitions:
            return 0.0
        return self.n_nonzero_partitions / self.n_partitions


def partition_statistics(
    matrix: SparseMatrix, p: int, block_size: int = 4
) -> PartitionStatistics:
    """Compute the Figure-3 statistics for ``matrix`` at tile size ``p``."""
    table = profile_table(matrix, p, block_size=block_size)
    total = count_partitions(matrix.shape, p)
    if not table.n_tiles:
        return PartitionStatistics(p, total, 0, 0.0, 0.0, 0.0)
    return PartitionStatistics(
        p=p,
        n_partitions=total,
        n_nonzero_partitions=table.n_tiles,
        avg_partition_density=float(np.mean(table.density)),
        avg_row_density=float(np.mean(table.row_density)),
        avg_nnz_row_fraction=float(np.mean(table.nnz_row_fraction)),
    )
