"""Binary linear codes: duals, hulls, parity classes, minimum distance.

A LinearCode(rows, n) holds a full-row-rank generator matrix, the int
rows of a ``gf2.BitMatrix`` record.  The matrix is kept exactly as
supplied (several basis-sensitive procedures depend on the stored
shape); analyses are cached lazily on the immutable object.
The constructor's rank check is ``gf2.eliminate`` below ``BZ_MIN_K``
rows and ``gf2.rref`` from there on, and the code keeps its (pivot,
row) pairs: ``contains`` reduces a vector against them, and
from ``BZ_MIN_K`` rows on they are the RREF itself, so ``rref()`` costs
no second elimination; below, ``rref()`` runs ``gf2.rref`` once.
``dual()`` reads the null space off that RREF, and so do the low-weight
engine's parity-check columns, with no dual code built.  The hull
dimension comes from the smaller of the two Gram matrices, G Gᵀ or
H Hᵀ, when those columns are already cached, and from G Gᵀ otherwise.
``rref()``, ``gram()`` and ``projector()`` return tuples of int rows.

Coordinates are 1-indexed at the API surface and 0-indexed internally.

``min_distance`` takes no option: the dimension picks its kernel,
``min_weight`` up to ``K_FULL`` rows and the low-weight engine past
them.  The codeword-weight kernels live here: ``min_weight``, the
minimum weight behind ``min_distance``, the search, the step-down
certificate and the GF(2^m) symbol distance; ``WeightTable``, the
weights of all 2^k messages packed as lanes of one int, which a column
change updates in one subtraction and one addition (the tables'
enumerator cuts on its lanes, and ``lcd_search`` keeps one per restart
below ``BZ_MIN_K`` rows); and ``_subset_sums``, the XORs of every
t-subset of some columns.  The low-weight engine reads d off
collisions among sums of parity-check columns: once no codeword is
lighter than w, equal sums of two distinct subsets of sizes floor(w/2)
and ceil(w/2) come from disjoint subsets, so it keeps sums only, no
support masks;
``_zero_sum_supports`` adds each subset's mask (``_subset_sums`` over
the unit vectors) to list the words themselves.  ``min_weight``
walks all 2^k - 1 nonzero codewords in Gray-code order below
``BZ_MIN_K`` rows, and runs the Brouwer-Zimmermann algorithm over
disjoint information sets from there on, its w-row combinations read
off half-subset XOR tables; both paths keep the same ``stop`` contract.
``_gray_walk`` is the plain enumerator behind ``codewords()`` and the
tests' oracle.
GF(2) elimination lives in ``gf2.eliminate`` and ``gf2.rref``.
``read_framed`` reads the framing that GEN1 and EXTGEN1 files share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import (chain, combinations, islice, product, repeat,
                       starmap, tee)
from math import comb
from operator import or_, xor
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from . import gf2
from .gf2 import BitMatrix

# min_distance runs min_weight up to this dimension, the low-weight
# engine past it.
K_FULL = 26
# From this many rows on, min_weight runs Brouwer-Zimmermann instead of
# the Gray walk.  Timed on random codes with n from 1.5k to 4k, it wins
# or ties from k = 11 on, and loses by up to about 2.5x at k = 9-10 with
# n >= 3k.
BZ_MIN_K = 11
# The low-weight engine searches codewords of weight <= W_MAX only.
W_MAX = 8

ODD_LIKE = "odd-like"
EVEN_LIKE = "even-like"


class EngineBudgetError(Exception):
    """Raised when no distance engine can certify the request in budget."""


class ParseError(ValueError):
    """Malformed code file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def check_coords(T: Iterable[int], n: int) -> Tuple[int, ...]:
    """Validate a 1-indexed coordinate set; returns it sorted."""
    T = list(T)
    for i in T:
        # type(): a JSON true is an int to isinstance
        if type(i) is not int or not 1 <= i <= n:
            raise ValueError(f"coordinate {i!r} out of range 1..{n}")
    idx = sorted(set(T))
    if len(idx) != len(T):
        raise ValueError("coordinates must be distinct")
    return tuple(idx)


@dataclass(frozen=True)
class ParityClass:
    """Odd/even-likeness of a code and its dual, plus the hull dimension."""

    self_parity: str
    dual_parity: str
    hull_dim: int

    @property
    def label(self) -> str:
        if self.hull_dim != 0:
            return "NotLCD"
        tag = ("o" if self.self_parity == ODD_LIKE else "e",
               "o" if self.dual_parity == ODD_LIKE else "e")
        return "LCD_" + "".join(tag)


class LinearCode:
    """An [n,k] binary code held by a fixed generator matrix.

    The (pivot, row) pairs of an elimination of the generator rows back
    ``contains`` and ``contains_all_one``: the constructor's rank check,
    or for a punctured code the elimination that picked its rows.  The
    RREF backs ``rref``, ``dual`` and the low-weight engine's
    parity-check columns; the constructor's rank check from
    ``BZ_MIN_K`` rows on is a ``gf2.rref`` call that yields it, and
    otherwise one such call builds it on first use.  The Gram matrix
    backs ``hull``, and ``hull_dimension`` and ``is_lcd`` read the
    smaller of the two Gram matrices when those columns are already
    cached.  Each result is cached on first use.
    """

    __slots__ = ("gen", "n", "k", "_cache")

    def __init__(self, rows: Iterable[int], n: int):
        gen = BitMatrix(tuple(rows), n)
        # k > n needs no check of its own: the rank is at most n < k
        if len(gen.rows) < BZ_MIN_K:
            cache = {"basis": gf2.eliminate(gen.rows)[0]}
        else:
            R, pivots = gf2.rref(gen.rows, n)
            cache = {"basis": list(zip(pivots, R)), "rref": (R, pivots)}
        if len(cache["basis"]) != len(gen.rows):
            raise ValueError("generator matrix does not have full row rank")
        self._fill(gen, cache)

    def _fill(self, gen: BitMatrix, cache: dict) -> None:
        """Set the fields of a code on the independent rows of gen,
        whose (pivot, row) pairs are ``cache["basis"]``."""
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "n", gen.cols)
        object.__setattr__(self, "k", len(gen.rows))
        object.__setattr__(self, "_cache", cache)

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "LinearCode":
        gen = BitMatrix.from_strings(lines)
        return cls(gen.rows, gen.cols)

    # ------------------------------------------------------------------
    # basic analysis

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _rref(self) -> tuple:
        """RREF rows and pivot columns, as ``gf2.rref`` gives them."""
        return self._cached("rref", lambda: gf2.rref(self.gen.rows, self.n))

    def rref(self) -> tuple:
        return self._rref()[0]

    def gram(self) -> tuple:
        return self._cached("gram", lambda: gf2.gram(self.gen.rows))

    def dual(self) -> "LinearCode":
        def build():
            R, pivots = self._rref()
            return LinearCode(gf2._free_column_basis(R, pivots, self.n),
                              self.n)
        return self._cached("dual", build)

    def hull_dimension(self) -> int:
        """dim(C ∩ C⊥) = k - rank(G Gᵀ) = (n - k) - rank(H Hᵀ).

        The hull of C is also the hull of C⊥, so when the parity-check
        columns are already cached (the low-weight engine reads them)
        and H has fewer rows, its smaller Gram matrix gives the answer.
        With the columns packed as lanes, one shift and one AND read
        H's row at bit f: bit f of every lane, at that lane's bit 0.
        The columns are not built for this alone.
        """
        def build():
            cols = self._cache.get("parity_columns")
            if cols is None or 2 * self.k <= self.n:
                return self.k - gf2.rank(self.gram())
            packed, rep = gf2.pack_lanes(cols, self.n + 1)
            h_rows = reduce(or_, cols, 0)  # the bits that H's rows sit at
            return self.n - self.k - gf2.rank(gf2.gram([
                packed >> f & rep for f in range(self.n) if h_rows >> f & 1]))
        return self._cached("hull_dim", build)

    def hull(self) -> "LinearCode":
        """The intersection C ∩ C⊥ as an explicit code.

        Computed from the Gram matrix: x·G lies in the hull exactly when
        x is in the null space of the symmetric G·Gᵀ.
        """
        def build():
            coeffs = gf2.nullspace(self.gram(), self.k)
            words = gf2.mul(coeffs, self.gen.rows)
            return LinearCode(gf2.rref(words, self.n)[0], self.n)
        return self._cached("hull", build)

    def is_lcd(self) -> bool:
        return self.hull_dimension() == 0

    def projector(self) -> tuple:
        """Π = Gᵀ (G Gᵀ)⁻¹ G, the orthogonal projector onto an LCD code.

        Symmetric and the same for every generator, its rows codewords;
        ValueError when C is not LCD.  Puncturing T without losing
        dimension keeps C LCD exactly when I + Π[T,T] is nonsingular,
        and shortening one coordinate j with a nonzero column exactly
        when Π_jj = 1 (row j of Π is zero when column j of G is).
        """
        if not self.is_lcd():
            raise ValueError("code is not LCD: it has no projector")
        rows = self.gen.rows
        return self._cached("projector", lambda: gf2.mul(
            gf2.transpose(rows, self.n),
            gf2.mul(gf2.inverse(self.gram()), rows)))

    def is_even_like(self) -> bool:
        return all(r.bit_count() % 2 == 0 for r in self.gen.rows)

    def contains(self, v: int) -> bool:
        """Whether v is a codeword: v reduces to 0 against the basis."""
        if v >> self.n:
            raise ValueError("dimension mismatch")
        for col, w in self._cache["basis"]:
            if (v >> col) & 1:
                v ^= w
        return not v

    def contains_all_one(self) -> bool:
        return self.contains((1 << self.n) - 1)

    def parity_class(self) -> ParityClass:
        self_parity = EVEN_LIKE if self.is_even_like() else ODD_LIKE
        dual_parity = EVEN_LIKE if self.contains_all_one() else ODD_LIKE
        return ParityClass(self_parity, dual_parity, self.hull_dimension())

    # ------------------------------------------------------------------
    # codeword enumeration and minimum distance

    def codewords(self) -> Iterator[int]:
        """All 2^k codewords as packed ints via a Gray-code walk."""
        yield from _gray_walk(self.gen.rows)

    def min_distance(self) -> int:
        """Exact minimum distance: ``min_weight`` up to ``K_FULL`` rows,
        the low-weight engine past them; cached, a give-up excepted."""
        def build():
            if self.k <= K_FULL:
                return min_weight(self.gen.rows)
            return _min_distance_low_weight(self)
        return self._cached("dmin_value", build)

    def weight_words(self, w: int) -> List[int]:
        """All codewords of weight exactly w, as packed ints."""
        if w < 1:
            raise ValueError("weight must be >= 1")
        if self.k <= K_FULL:
            return [c for c in self.codewords() if c.bit_count() == w]
        if w > W_MAX:
            raise EngineBudgetError(
                f"cannot enumerate weight-{w} words with k > {K_FULL}")
        return _low_weight_words(self, w)

    # ------------------------------------------------------------------
    # puncture / shorten

    def puncture(self, T: Iterable[int]) -> "LinearCode":
        idx = check_coords(T, self.n)
        if len(idx) >= self.n:
            raise ValueError("cannot puncture every coordinate")
        rows = [_drop_bits(r, idx) for r in self.gen.rows]
        # keep a maximal independent subset, earliest rows first; the
        # elimination that picks it is the kept rows' own, so the code
        # takes its basis instead of running the constructor's
        basis, kept = gf2.eliminate(rows)
        code = LinearCode.__new__(LinearCode)
        code._fill(BitMatrix(tuple([rows[i] for i in kept]),
                             self.n - len(idx)), {"basis": basis})
        return code

    def shorten(self, T: Iterable[int]) -> "LinearCode":
        """The subcode zero on T, less T: x·G for the x in the null
        space of G's columns on T, as ``hull`` reads the Gram matrix."""
        idx = check_coords(T, self.n)
        if len(idx) >= self.n:
            raise ValueError("cannot shorten every coordinate")
        cols = gf2.transpose(self.gen.rows, self.n)
        coeffs = gf2.nullspace([cols[i - 1] for i in idx], self.k)
        return LinearCode([_drop_bits(r, idx) for r in
                           gf2.mul(coeffs, self.gen.rows)],
                          self.n - len(idx))

    # ------------------------------------------------------------------
    # identity is the codeword set

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearCode) and self.n == other.n
                and self.rref() == other.rref())

    def __hash__(self) -> int:
        return hash((self.n, self.rref()))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"


def _drop_bits(r: int, idx: Tuple[int, ...]) -> int:
    """Remove the (1-indexed, ascending) coordinate positions from r."""
    out = 0
    shift = 0
    prev = 0
    for i in idx:
        width = (i - 1) - prev
        out |= ((r >> prev) & ((1 << width) - 1)) << shift
        shift += width
        prev = i
    out |= (r >> prev) << shift
    return out


def _gray_walk(rows: Sequence[int]) -> Iterator[int]:
    """Yield all subset XORs of rows, starting from 0, one flip per step."""
    k = len(rows)
    acc = 0
    yield acc
    for x in range(1, 1 << k):
        acc ^= rows[(x & -x).bit_length() - 1]
        yield acc


def min_weight(rows: Sequence[int], stop: int = 1) -> int:
    """Minimum weight of the nonzero XORs of rows.

    Exact when that minimum exceeds stop; otherwise the search ends once
    it has met a weight <= stop and returns it.  For independent rows
    the default stop=1 is always exact; dependent rows give 0.

    Below ``BZ_MIN_K`` rows this is a Gray-code walk over all 2^k - 1
    combinations, ending at the first weight <= stop.  From there on it
    is Brouwer-Zimmermann: round w walks every w-row combination of each
    generator from ``_information_sets``, and afterwards every codeword
    not yet met weighs at least sum_j max(0, w + 1 - (k - r_j)) on the
    disjoint pivot sets.  A partial set (r_j < k) adds nothing to that
    bound before round k - r_j, so it is first walked then, through
    every combination size up to it, and it is not built before the
    rounds can reach that.  A combination is the XOR of two
    entries of the generator halves' subset-XOR tables, which grow one
    size at a time as the rounds reach it.  The search ends when the
    lightest word met weighs <= stop or no more than that bound.
    """
    if not rows:
        raise ValueError("minimum distance undefined for the zero code")
    if len(rows) >= BZ_MIN_K:
        return _brouwer_zimmermann(rows, stop)
    acc = 0
    best = max(rows).bit_length() + 1  # above every possible weight
    for x in range(1, 1 << len(rows)):
        acc ^= rows[(x & -x).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
            if w <= stop:
                break
    return best


class WeightTable:
    """The weights of all 2^k messages of a k-row code, as lanes of one int.

    Lane x of ``weights`` is ``width`` = n.bit_length() + 1 bits wide and
    holds the weight of the codeword x G; its top bit is a guard bit that
    no weight reaches.  Column c of G adds parity(x . c) to lane x, which
    is lane x of ``pattern(c)``: the XOR of ``units[i]`` over the bits i
    of c, where ``units[i]`` holds 1 in exactly the lanes x with bit i
    set.  The table is the sum of the column patterns, so changing
    column j from c to any c' is ``swap(j, pattern(c'))``, one
    subtraction and one addition, and ``at_least`` checks a bound on
    every nonzero message in one add and one AND against the guard bits.
    """

    __slots__ = ("n", "width", "units", "nonzero", "guards", "patterns",
                 "weights")

    def __init__(self, cols: Sequence[int], k: int):
        n = len(cols)
        width = n.bit_length() + 1
        size = width << k  # bits of the whole table
        units = []
        run = 1  # 1 in lanes 0 .. 2^i - 1: a repunit of base 2^width
        for i in range(k):
            shift = width << i
            unit = run << shift
            period = shift << 1
            while period < size:  # repeat it every 2^(i+1) lanes
                unit |= unit << period
                period <<= 1
            units.append(unit)
            run |= run << shift
        self.n = n
        self.width = width
        self.units = units
        self.nonzero = run ^ 1  # every lane but message 0's
        self.guards = self.nonzero << (width - 1)
        self.patterns = [self.pattern(c) for c in cols]
        self.weights = sum(self.patterns)

    def pattern(self, c: int) -> int:
        """The lanes parity(x . c) that a column c adds to the weights."""
        units = self.units
        f = 0
        while c:
            low = c & -c
            f ^= units[low.bit_length() - 1]
            c ^= low
        return f

    def swap(self, j: int, pattern: int) -> int:
        """The weights with column j's pattern replaced; nothing is kept."""
        return self.weights - self.patterns[j] + pattern

    def keep(self, j: int, pattern: int, weights: int) -> None:
        """Keeps a swap: column j's new pattern and the weights it gives."""
        self.patterns[j] = pattern
        self.weights = weights

    def at_least(self, weights: int, bound: int) -> bool:
        """Whether every nonzero message weighs at least bound.

        Adding 2^(width-1) - bound to a lane sets its guard bit exactly
        when its weight is at least bound, and carries into no other
        lane, for 0 <= bound <= n + 1; lane 0, message 0's, is masked out.
        """
        top = self.width - 1
        guards = self.guards
        return (weights + ((1 << top) - bound) * self.nonzero) & guards \
            == guards

    def minimum(self, weights: int, known: int = 0) -> int:
        """The least nonzero message weight, stepping up from known.

        Exact when it is at least known; below that, returns known.  n + 1
        when k = 0, as for a code with no nonzero word.
        """
        bound = known
        while bound <= self.n and self.at_least(weights, bound + 1):
            bound += 1
        return bound


def _information_sets(rows: Sequence[int]) -> Iterator[Tuple[tuple, int]]:
    """Bases of the rows' span, systematic on disjoint pivot sets.

    Yields one (gamma, r) pair per set, built greedily from the columns
    no earlier set used, and only when asked for: gamma is a basis of
    the span, r of its words unit vectors on the set's r pivot columns
    and the rest zero on those columns.  The last sets may be partial
    (r < len(gamma)); a set's r is at most the number of columns that
    the sets before it left.
    """
    support = reduce(or_, rows)
    n = support.bit_length()
    free = support
    while free:
        # Each row masked to the free columns carries the whole row in
        # the bits above them, so every reduced row is a codeword on top;
        # one whose mask part cancels is zero on every free column.
        R, pivots = gf2.rref([(r & free) | r << n for r in rows], 2 * n)
        r = sum(p < n for p in pivots)
        yield tuple(w >> n for w in R), r
        for p in pivots[:r]:
            free &= ~(1 << p)


def _subset_xors(sizes: List[list], s: int) -> None:
    """Grow sizes, the XORs of some rows' subsets listed by size, to s.

    sizes[0] is [0] and sizes[1] the rows themselves.  Each size lists
    its subsets by their last row, so the (t-1)-subsets of the first j
    rows are the first C(j, t-1) entries of size t - 1, and the
    t-subsets whose last row is row j are those XORed with row j.
    """
    rows = sizes[1]
    for t in range(len(sizes), min(s, len(rows)) + 1):
        counts = [comb(j, t - 1) for j in range(t - 1, len(rows))]
        sizes.append(list(map(xor, chain.from_iterable(
            map(islice, repeat(sizes[t - 1]), counts)),
            chain.from_iterable(map(repeat, rows[t - 1:], counts)))))


def _brouwer_zimmermann(rows: Sequence[int], stop: int) -> int:
    """``min_weight`` by rounds over the disjoint information sets.

    A set of rank r first contributes in round k - r, and its rank is
    at most the number of columns left after the sets before it, so a
    set is built only when the rounds reach k minus that number.  A
    w-row combination of a set's basis is the XOR of an i-subset of its
    first half with a (w - i)-subset of the other half.
    """
    k = len(rows)
    sets = _information_sets(rows)
    first = next(sets, ((), 0))
    if len(first[0]) < k:
        return 0  # dependent rows: some nonempty combination is zero
    sets = chain([first], sets)
    left = reduce(or_, rows).bit_count()  # the columns in no set yet
    upper = max(rows).bit_length() + 1  # above every possible weight
    tables = []  # per set built: its halves' subset-XOR tables and rank
    gains = []  # each set's share of the lower bound
    for w in range(1, k + 1):
        while left and w >= k - left:
            gamma, r = next(sets)
            left -= r
            tables.append(([[0], list(gamma[:k // 2])],
                           [[0], list(gamma[k // 2:])], r))
            gains.append(0)
        for j, (lo, hi, r) in enumerate(tables):
            start = max(1, k - r)  # the set's first contributing round
            if w < start:
                continue
            _subset_xors(lo, w)
            _subset_xors(hi, w)
            words = chain.from_iterable(
                starmap(xor, product(lo[i], hi[s - i]))
                for s in (range(1, w + 1) if w == start else (w,))
                for i in range(max(0, s - len(hi[1])),
                               min(s, len(lo[1])) + 1))
            upper = min(upper, min(map(int.bit_count, words)))
            gains[j] = w + 1 - (k - r)
            if upper <= stop or sum(gains) >= upper:
                return upper
    return upper


def _parity_columns(C: LinearCode) -> List[int]:
    """Columns of a parity-check matrix, packed as ints (one per coord).

    Read off the RREF [I | A] (up to column order): H = [Aᵀ | I] has a
    row per free column f, stored at bit f, so free column f is 1 << f
    and pivot column p_i is RREF row i masked to the free columns.  A
    set of columns sums to zero exactly when it is a codeword's support.
    Cached on the code, where ``hull_dimension`` reads it.
    """
    def build():
        R, pivots = C._rref()
        cols = [1 << j for j in range(C.n)]
        free = (1 << C.n) - 1 - sum(1 << p for p in pivots)
        for p, row in zip(pivots, R):
            cols[p] = row & free
        return cols
    return C._cached("parity_columns", build)


def _subset_sums(cols: Sequence[int], t: int) -> Iterator[int]:
    """The XOR of each t-subset of cols, in ``combinations`` order.

    Over distinct unit vectors an XOR is an OR, so the same stream over
    ``1 << i`` gives each subset's support mask.
    """
    if t == 1:
        return iter(cols)
    if t == 2:
        return starmap(xor, combinations(cols, 2))
    return map(reduce, repeat(xor), combinations(cols, t), repeat(0))


def _zero_sum_supports(cols: Sequence[int], w: int) -> Iterator[int]:
    """Supports of the weight-w codewords, by meet-in-the-middle.

    A weight-w codeword is a set of w parity-check columns (cols, one
    per coordinate) summing to zero: hash the sums of all
    floor(w/2)-subsets with their support masks, then pair each
    ceil(w/2)-subset with every disjoint partner of equal sum.  Sums and
    masks both come from ``_subset_sums``.  A support is yielded once
    per split into such a pair.  The masks are kept only to list the
    words: when w is the minimum distance, any two distinct colliding
    subsets are disjoint (their symmetric difference would otherwise be
    a lighter codeword), so ``_min_distance_low_weight`` tests bare
    sums for a collision and keeps no masks.
    """
    half = w // 2
    units = [1 << i for i in range(len(cols))]
    table: dict = {}
    for s, m in zip(_subset_sums(cols, half), _subset_sums(units, half)):
        table.setdefault(s, []).append(m)
    for s, m in zip(_subset_sums(cols, w - half),
                    _subset_sums(units, w - half)):
        for m1 in table.get(s, ()):
            if not m1 & m:
                yield m1 | m


def _min_distance_low_weight(C: LinearCode) -> int:
    """The smallest w <= W_MAX with a weight-w codeword.

    With w rising from 1, once no codeword is lighter than w, two
    distinct subsets of floor(w/2) and ceil(w/2) parity-check columns
    with equal sums are disjoint, or their symmetric difference would be
    a lighter codeword; so d is the first w at which such a pair exists.
    For odd w some ceil(w/2)-sum lies in the set of floor(w/2)-sums; for
    even w two ceil(w/2)-sums repeat, and their set is the next odd w's
    table.  Each size is summed once: the odd probe keeps its stream
    for the even step's set.
    """
    if C.k == 0:
        raise ValueError("minimum distance undefined for the zero code")
    if C.k == C.n:
        return 1
    cols = _parity_columns(C)
    table = {0}  # the sums of the floor(w/2)-subsets
    for w in range(1, W_MAX, 2):  # w and w + 1: W_MAX is even
        t = w - w // 2
        probe, kept = tee(_subset_sums(cols, t))
        if any(map(table.__contains__, probe)):
            return w
        table = set(kept)
        if len(table) < comb(len(cols), t):
            return w + 1
    raise EngineBudgetError(
        f"minimum distance >= {W_MAX + 1}: beyond low-weight engine budget")


def _low_weight_words(C: LinearCode, w: int) -> List[int]:
    """All weight-w codewords, sorted."""
    return sorted(set(_zero_sum_supports(_parity_columns(C), w)))


# ----------------------------------------------------------------------
# GEN1 text format: "n k" header then k rows of n characters in {0,1};
# EXTGEN1 (``expansion``) has an "n k m" header and rows of n elements.

def _content(lines: Sequence[str]) -> Iterator[Tuple[int, str]]:
    """(line number, text) of each line left after '#' comments, stripped."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


def header_width(text: str) -> int:
    """The number of fields on the first line ``read_framed`` reads: 2
    for GEN1, 3 for EXTGEN1, 0 when there is none."""
    return len(next(_content(text.splitlines()), (0, ""))[1].split())


def read_framed(text: str, names: str, row: Callable[[str, tuple], object],
                check: Callable[[tuple], None] = lambda header: None
                ) -> Tuple[tuple, list]:
    """(header, rows) of a code file: a header of the integer fields
    ``names``, n and k first with n >= 1 and 0 <= k <= n, that
    ``check(header)`` may refuse, then exactly k ``row(line, header)``.
    The first fault in line order is a ParseError at its line; the
    callbacks raise ValueError with the message."""
    header = None
    rows = []
    lines = text.splitlines()
    for lineno, line in _content(lines):
        try:
            if header is None:
                parts = line.split()
                if len(parts) != len(names.split()):
                    raise ValueError(f"expected header '{names}'")
                try:
                    header = tuple(map(int, parts))
                except ValueError:
                    raise ValueError("non-integer header") from None
                n, k = header[:2]
                if n < 1 or k < 0 or k > n:
                    raise ValueError(f"bad parameters n={n} k={k}")
                check(header)
            elif len(rows) < header[1]:
                rows.append(row(line, header))
            else:
                raise ValueError("more rows than declared")
        except ValueError as e:
            raise ParseError(str(e), lineno) from None
    if header is None:
        raise ParseError("missing header", 1)
    if len(rows) != header[1]:
        raise ParseError(f"expected {header[1]} rows, found {len(rows)}",
                         len(lines) + 1)
    return header, rows


def _gen1_row(line: str, header: tuple) -> int:
    if len(line) != header[0] or line.strip("01"):
        raise ValueError(f"expected {header[0]} characters of 0/1")
    return int(line[::-1], 2)  # character i as bit i, as gf2.parse_bits


def parse_gen1(text: str) -> LinearCode:
    (n, _), rows = read_framed(text, "n k", _gen1_row)
    return LinearCode(rows, n)


def format_gen1(C: LinearCode) -> str:
    lines = [f"{C.n} {C.k}"]
    lines.extend(gf2.format_bits(r, C.n) for r in C.gen.rows)
    return "\n".join(lines) + "\n"
