"""The size caps above which levylab refuses a computation, before building it, and the shared checks.

Readers read a cap as ``limits.<NAME>`` when they run, so setting it here moves it everywhere.
"""

from __future__ import annotations

from .errors import SpaceTooLarge, TooLargeForExact, TooManySamples

# the most points whose subsets alpha_profile enumerates, and product_space materializes
ENUMERATION_LIMIT = 20
# the most elements a box or ball measure may hold, checked before it is built: CLI `defect`
# on 998,001 Z^2 points peaks near 265 MB, under a 768 MiB address-space cap
SUPPORT_LIMIT = 10**6
# the most tuples an exact profile or push-forward enumerates
EXACT_PRODUCT_LIMIT = 10**6
# most entries one sampled array may hold (samples x n codes, or samples values): under a
# 768 MiB address-space cap, a profile of 2^24 samples completes and 2 x 10^7 do not, and
# one block of 2^24 coordinates (--n 16777216 --samples 1) completes on any base
SAMPLE_ARRAY_LIMIT = 1 << 24
# the most table entries one l0_defect call may count, (member pieces x shift values + n)
# x atoms plus its planned cell pieces, checked before any kernel column is built
TABLE_ENTRY_LIMIT = 1 << 22
# the most radii an eps grid may list, checked before the list is built
EPS_GRID_LIMIT = 10**5
# the most stages a schedule's index range may list, checked before any stage is evaluated
STAGE_LIMIT = 10**4


def power_over(k: int, n: int, cap: int) -> str:
    """k^n as text ("k^n" when it is not formed) if it exceeds cap, else ""; k >= 1 and n >= 0.

    Only k^m, m = min(n, bit length of cap), is formed: for k >= 2 it exceeds cap exactly when k^n does.
    """
    m = min(n, cap.bit_length())
    count = k**m
    if count <= cap:
        return ""
    return str(count) if m == n else f"{k}^{n}"


def check_enumeration(k: int, n: int) -> None:
    """Refuse an enumeration of the k^n n-tuples of k atoms above EXACT_PRODUCT_LIMIT, before it is built."""
    if tuples := power_over(k, n, EXACT_PRODUCT_LIMIT):
        raise TooLargeForExact(f"{tuples} tuples exceeds exact cap {EXACT_PRODUCT_LIMIT}")


def check_sample_array(samples: int, n: int = 1) -> None:
    """Refuse an array of samples x n entries above SAMPLE_ARRAY_LIMIT before it is allocated."""
    if samples * n > SAMPLE_ARRAY_LIMIT:
        raise TooManySamples(
            f"{samples * n} sampled entries ({samples} samples x {n}) exceed the cap of {SAMPLE_ARRAY_LIMIT}"
        )


def check_table_entries(n: int, atoms: int, g, pieces: int) -> None:
    """Refuse an l0_defect call on n cells, atoms atoms, pieces member pieces and target g above TABLE_ENTRY_LIMIT.

    Kernel columns and tables take (pieces x shift values + n) x atoms
    entries.  amplify.expectations plans the cells of the identity, g and
    its grid approximation g': at most 3n + (g's breakpoints) runs, each
    cut into at most pieces cell pieces, so that many more.  The count
    takes sizes only; no grid cell of g is sampled.
    """
    # the identity, g and g' take these shift values
    shifts = len({g.group.identity, *g.values})
    cells = 3 * n + len(g.breakpoints)
    entries = (pieces * shifts + n) * atoms + cells * pieces
    if entries > TABLE_ENTRY_LIMIT:
        raise SpaceTooLarge(
            f"{entries} table entries exceed the cap of {TABLE_ENTRY_LIMIT}: ({pieces} member pieces"
            f" x {shifts} shift values + {n} cells) x {atoms} atoms + {cells} planned runs x {pieces} pieces"
        )
