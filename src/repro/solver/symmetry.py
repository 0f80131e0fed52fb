"""Verified block symmetry of a MILP, for orbital branching.

An EEG formulation holds one copy of the same channel subgraph per
channel: the same costs, bounds and coefficients, wired the same way to
the shared sink and the budget rows.  Any permutation of the channels
maps a feasible point to a feasible point of equal objective, so a
branch and bound that ignores this explores one subtree per permutation.

:func:`detect_block_symmetry` finds such interchangeable column blocks
from the arrays alone (it never reads a variable or row name):

1. colour refinement on the bipartite column--row graph, starting from
   each column's ``(c, lb, ub, integrality)`` and each row's
   ``(kind, b)`` and refining by the coefficients on the edges;
2. candidate blocks are the connected components of the columns in
   non-singleton colour classes, linked only through rows that hit each
   colour class at most once (a budget row touching every channel links
   nothing);
3. components with the same colour multiset form a family; where a
   colour repeats inside a component (the even/odd halves of a
   channel's filters), the lowest-index column of that colour in every
   component of the family gets one fresh colour and the colours are
   refined again, until each component's columns line up by colour;
4. a family is kept only if swapping its first block with each other
   block maps ``c``, ``lb``, ``ub``, integrality and the ``A_ub``/``b_ub``
   and ``A_eq``/``b_eq`` rows exactly onto themselves
   (:func:`verify_blocks`).  Those transpositions generate every
   permutation of the family's blocks.

Colours only propose; step 4 decides.  A colour collision or an unlucky
alignment can lose a symmetry, never invent one.
"""

from __future__ import annotations

import numpy as np

from .model import StandardArrays


class BlockSymmetry:
    """Families of interchangeable column blocks of one instance.

    ``families[f]`` is a ``(blocks, width)`` index array: row ``i`` lists
    block ``i``'s columns, aligned so that column ``p`` of every block
    plays the same role.  Any permutation of a family's blocks is an
    automorphism of the instance.
    """

    def __init__(self, num_variables: int, families: list[np.ndarray]):
        self.families = families
        self._family = np.full(num_variables, -1, dtype=np.intp)
        self._block = np.zeros(num_variables, dtype=np.intp)
        self._position = np.zeros(num_variables, dtype=np.intp)
        for f, blocks in enumerate(families):
            self._family[blocks] = f
            self._block[blocks] = np.arange(len(blocks))[:, None]
            self._position[blocks] = np.arange(blocks.shape[1])[None, :]

    def orbit(
        self, column: int, lb: np.ndarray, ub: np.ndarray
    ) -> np.ndarray | None:
        """``column``'s orbit under the symmetry of the box ``[lb, ub]``.

        Blocks of ``column``'s family whose bounds equal its block's,
        position by position, can still be permuted freely inside the
        box; the orbit is ``column``'s position in each of them (itself
        included).  ``None`` when ``column`` has no symmetric partner.
        """
        f = self._family[column]
        if f < 0:
            return None
        blocks = self.families[f]
        lbs, ubs = lb[blocks], ub[blocks]
        own = self._block[column]
        same = (lbs == lbs[own]).all(axis=1) & (ubs == ubs[own]).all(axis=1)
        if same.sum() < 2:
            return None
        return blocks[same, self._position[column]]


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser: a fixed, well-spread bijection on 64-bit
    words that maps only 0 to 0."""
    x = x.astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


#: Offset that keeps own-colour hash inputs apart from edge inputs.
_OWN = 1 << 62


def _labels(keys: list) -> np.ndarray:
    """Dense labels for hashable ``keys``, numbered by first appearance.

    A dict rather than a numpy sort: detection runs once per branching
    solve, and the first sort a worker process runs maps numpy's sort
    kernels into its memory.
    """
    index: dict = {}
    return np.array(
        [index.setdefault(key, len(index)) for key in keys], dtype=np.intp
    )


def _signatures(
    own: np.ndarray,
    owner: np.ndarray,
    other: np.ndarray,
    value: np.ndarray,
    n_values: int,
) -> np.ndarray:
    """One refinement step on one side of the bipartite graph.

    Each vertex's new colour hashes its own colour with the multiset of
    ``(neighbour colour, coefficient)`` over its edges: a wrapping sum of
    one hash per edge and one of the own colour, drawn from disjoint
    nonzero inputs.  ``owner[e]`` and ``other[e]`` are edge ``e``'s two
    ends, ``value[e]`` its coefficient id (below ``n_values``).
    """
    signature = np.zeros(len(own), dtype=np.uint64)
    np.add.at(signature, owner, _mix(other * n_values + value + 1))
    return _labels((signature + _mix(own + _OWN)).tolist())


def _refine(
    col: np.ndarray,
    row: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    value: np.ndarray,
    n_values: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Colour refinement to the stable partition (1-WL, bipartite).

    A round only splits classes, so it stops once the class count stops
    growing (a hash collision, which merges, stops it too).
    """
    classes = len(set(col.tolist())) + len(set(row.tolist()))
    while True:
        col = _signatures(col, cols, row[rows], value, n_values)
        row = _signatures(row, rows, col[cols], value, n_values)
        refined = int(col.max()) + int(row.max()) + 2
        if refined <= classes:
            return col, row
        classes = refined


def _components(
    colour: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int, m: int
) -> list[np.ndarray]:
    """Candidate blocks: components of the non-singleton colour classes.

    Two candidate columns are linked when they share a row that hits each
    colour class at most once.  ``rows``/``cols`` list the nonzeros in
    row-major order.
    """
    candidate = np.bincount(colour)[colour] >= 2
    # A row links when its nonzeros' colours are all distinct.
    span = int(colour.max()) + 1
    pairs = set((rows * span + colour[cols]).tolist())
    distinct = np.bincount(
        np.fromiter(pairs, np.int64, len(pairs)) // span, minlength=m
    )
    linking = distinct == np.bincount(rows, minlength=m)
    keep = linking[rows] & candidate[cols]
    r, c = rows[keep], cols[keep]
    chain = r[1:] == r[:-1]  # consecutive candidates of one linking row
    parent = list(range(n))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for a, b in zip(c[:-1][chain].tolist(), c[1:][chain].tolist()):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    blocks: dict[int, list[int]] = {}
    for j in np.flatnonzero(candidate).tolist():
        blocks.setdefault(find(j), []).append(j)
    return [np.array(block) for block in blocks.values()]


def _families(
    components: list[np.ndarray], colour: np.ndarray
) -> list[list[np.ndarray]]:
    """Components grouped by colour multiset, each sorted by colour
    (ties in column order)."""
    colours = colour.tolist()
    groups: dict[tuple, list[np.ndarray]] = {}
    for block in components:
        aligned = sorted(block.tolist(), key=colours.__getitem__)
        key = tuple(colours[j] for j in aligned)
        groups.setdefault(key, []).append(np.array(aligned))
    return [group for group in groups.values() if len(group) >= 2]


def _rows_equal_up_to(
    a: np.ndarray, b: np.ndarray, touched: np.ndarray, perm: np.ndarray
) -> bool:
    """Rows ``touched`` of ``[a | b]`` as a multiset, before and after
    permuting the columns of ``a`` by ``perm`` (-0.0 normalised)."""
    if not len(touched):
        return True
    sub = a[touched] + 0.0
    rhs = b[touched, None] + 0.0
    before = sorted(map(bytes, np.hstack([sub, rhs])))
    after = sorted(map(bytes, np.hstack([sub[:, perm], rhs])))
    return before == after


def verify_blocks(arrays: StandardArrays, blocks: np.ndarray) -> bool:
    """Whether every permutation of ``blocks`` is an automorphism.

    ``blocks`` is a ``(k, width)`` array of disjoint column indices, row
    ``i`` holding block ``i`` in aligned order.  Swapping block 0 with
    each other block must map ``c``, ``lb``, ``ub``, integrality and every
    row of ``A_ub``/``b_ub`` and ``A_eq``/``b_eq`` exactly onto
    themselves; those ``k - 1`` swaps generate every permutation.
    """
    blocks = np.asarray(blocks, dtype=np.intp)
    if blocks.ndim != 2 or len(set(blocks.flat)) != blocks.size:
        return False
    vectors = (arrays.c, arrays.lb, arrays.ub, arrays.integrality)
    matrices = [
        (a, b, a != 0.0)
        for a, b in ((arrays.a_ub, arrays.b_ub), (arrays.a_eq, arrays.b_eq))
        if a.size
    ]
    first = blocks[0]
    for other in blocks[1:]:
        if not all(np.array_equal(v[first], v[other]) for v in vectors):
            return False
        perm = np.arange(arrays.num_variables)
        perm[first], perm[other] = other, first
        moved = np.concatenate([first, other])
        for a, b, nonzero in matrices:
            touched = np.flatnonzero(nonzero[:, moved].any(axis=1))
            if not _rows_equal_up_to(a, b, touched, perm):
                return False
    return True


def detect_block_symmetry(arrays: StandardArrays) -> BlockSymmetry:
    """Find and verify interchangeable column blocks (see module notes)."""
    n = arrays.num_variables
    none = BlockSymmetry(n, [])
    # The nonzeros of [A_ub; A_eq], without stacking the dense matrices.
    m_ub = arrays.a_ub.shape[0]
    m = m_ub + arrays.a_eq.shape[0]
    ub_rows, ub_cols = np.nonzero(arrays.a_ub)
    eq_rows, eq_cols = np.nonzero(arrays.a_eq)
    rows = np.concatenate([ub_rows, eq_rows + m_ub])
    cols = np.concatenate([ub_cols, eq_cols])
    if n < 2 or not len(rows):
        return none
    # Colours start from exact values (as dict keys, -0.0 equals 0.0).
    coefficients = np.concatenate(
        [arrays.a_ub[ub_rows, ub_cols], arrays.a_eq[eq_rows, eq_cols]]
    )
    value = _labels(coefficients.tolist())
    n_values = int(value.max()) + 1
    col = _labels(
        list(
            zip(
                arrays.c.tolist(),
                arrays.lb.tolist(),
                arrays.ub.tolist(),
                arrays.integrality.tolist(),
            )
        )
    )
    kinds = [0] * m_ub + [1] * (m - m_ub)
    rhs = np.concatenate([arrays.b_ub, arrays.b_eq]).tolist()
    row = _labels(list(zip(kinds, rhs)))
    col, row = _refine(col, row, rows, cols, value, n_values)

    components = _components(col, rows, cols, n, m)
    if len(components) < 2:
        return none
    # Individualize: in every component of a family, the lowest-index
    # column of each repeated colour gets one fresh colour per tie; then
    # refine, until no component repeats a colour (each round adds
    # colours, so at most n rounds).
    for _ in range(n):
        ties = []
        for family in _families(components, col):
            colours = col[family[0]].tolist()
            tied = sorted({a for a, b in zip(colours, colours[1:]) if a == b})
            if tied:
                ties.append((family, tied))
        if not ties:
            break
        col = col.copy()
        fresh = int(col.max()) + 1
        for family, tied in ties:
            for colour in tied:
                for block in family:
                    col[block[col[block] == colour][0]] = fresh
                fresh += 1
        col, row = _refine(col, row, rows, cols, value, n_values)

    families = [np.array(family) for family in _families(components, col)]
    return BlockSymmetry(
        n, [blocks for blocks in families if verify_blocks(arrays, blocks)]
    )
