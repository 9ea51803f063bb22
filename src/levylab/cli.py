"""Command-line front door: configure, run, and emit CSV + JSON artifacts.

Subcommands: alpha (exact concentration functions), profile (deviation
profiles on Hamming products), defect (invariance-defect sweeps), amplify
(the push-forward schedule pipeline), phi-check (transfer-operator
identity suites).  Identical argv produces byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from functools import partial

import numpy as np

from . import __version__, rng
from .amplify import Schedule, expectations, member_pieces, run_schedule, stage_modes
from .errors import LevyLabError, SpaceTooLarge, WrongKind
from .families import (
    cell_window_family,
    disagreement_family,
    invariance_defect,
    wordlen_clamp_family,
)
from .hamming import (
    DiscreteBase,
    HammingProduct,
    _check_sample_array,
    _profiles,
    fraction_differing,
    product_space,
    talagrand_bound,
)
from .mean_transfer import phi_equivariance_check, phi_member, point_mass
from .mmspace import FiniteMMSpace, alpha_profile
from .stepmaps import PiecewiseMap, h_embed
from .wordgroups import (
    CyclicGroup,
    FreeGroup2,
    SUPPORT_LIMIT,
    WordGroup,
    ZdGroup,
    _check_support_size,
    ball_uniform,
    folner_measure,
    make_group,
)


# the most radii an eps grid may list, checked before the list is built
EPS_GRID_LIMIT = 10**5
# the most stages a schedule's index range may list, checked before any stage is evaluated
STAGE_LIMIT = 10**4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# literal parsers


def _parse_eps_grid(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        try:
            start, stop, step = (float(p) for p in text.split(":"))
        except ValueError as exc:
            raise UsageError(f"bad eps grid {text!r}, expected start:stop:step") from exc
        if not step > 0:
            raise UsageError("eps grid step must be > 0")
        # the index of the last radius; NaN fails both tests and gives no radius
        last = (stop - start) / step + 1e-9
        if last >= EPS_GRID_LIMIT:
            raise SpaceTooLarge(f"eps grid {text!r} has more than {EPS_GRID_LIMIT} radii")
        grid = [start + k * step for k in range(int(last) + 1)] if last >= 0 else []
    else:
        try:
            grid = [float(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise UsageError(f"bad eps list {text!r}") from exc
    if not grid:
        raise UsageError(f"eps grid {text!r} has no radius")
    return grid


def _parse_space(text: str) -> FiniteMMSpace:
    text = text.strip()
    if text == "one-point":
        return FiniteMMSpace.uniform(("p",), np.zeros((1, 1)))
    if text == "two-point":
        return FiniteMMSpace.uniform(("p", "q"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    if text.startswith("cube:"):
        n = int(text[5:])
        return product_space(HammingProduct(DiscreteBase.uniform((0, 1)), n))
    raise UsageError(f"unknown space {text!r} (use one-point, two-point, or cube:N)")


def _parse_base(text: str) -> DiscreteBase:
    text = text.strip()
    m = re.fullmatch(r"uniform(\d+)", text)
    if m:
        k = int(m.group(1))
        if k < 2:
            raise UsageError("uniformK needs K >= 2")
        if k > SUPPORT_LIMIT:
            raise SpaceTooLarge(f"the base {text} has more than {SUPPORT_LIMIT} atoms")
        return DiscreteBase.uniform(tuple(range(k)))
    try:
        weights = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad base {text!r} (use uniformK or a weight list)") from exc
    return DiscreteBase(tuple(range(len(weights))), weights)


def _parse_map(group: WordGroup, text: str):
    head, sep, body = text.partition(":")
    if not sep:
        raise UsageError(f"bad map literal {text!r}")
    head = head.strip()
    body = body.strip()
    if head.startswith("n="):
        n = int(head[2:])
        # commas inside parentheses belong to a Z^d element such as (1,0)
        values = tuple(group.parse(v) for v in re.split(r",(?![^()]*\))", body))
        if len(values) != n:
            raise UsageError(f"step literal declares n={n} but has {len(values)} values")
        return h_embed(group, values)
    values = tuple(group.parse(v) for v in body.split("|"))
    breaks = tuple(float(b) for b in head.split(",")) if head else ()
    if len(values) != len(breaks) + 1:
        raise UsageError("piecewise literal needs one more value than breakpoints")
    return PiecewiseMap(group, breaks, values)


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad parameter {part!r}, expected key=value")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _parse_family(group: WordGroup, text: str, seed: int):
    """The member count that text asks for, and a call that builds the family."""
    name, _, params = text.partition(":")
    kv = _parse_kv(params)
    name = name.strip()
    fam_seed = int(kv.pop("seed", rng.derive_seed(seed, "family")))
    count = int(kv.pop("count", 20))
    if name == "disagreement":
        build = partial(disagreement_family, max_pieces=int(kv.pop("pieces", 3)), radius=int(kv.pop("radius", 4)))
    elif name == "cell-indicator-smoothed":
        build = partial(cell_window_family, width=float(kv.pop("width", 0.25)), radius=int(kv.pop("radius", 4)))
    else:
        raise UsageError(f"unknown step-map family {name!r}")
    if kv:
        raise UsageError(f"unknown family parameters {sorted(kv)}")
    return count, partial(build, group, count, fam_seed)


def _parse_schedule_expr(expr: str, i: int) -> int:
    s = expr.replace(" ", "").replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    total = 0
    for term in s.split("+"):
        if not term:
            raise UsageError(f"bad schedule expression {expr!r}")
        m = re.fullmatch(r"(-?)(\d*)(i(\^2)?)?", term)
        if not m or (not m.group(2) and not m.group(3)):
            raise UsageError(f"bad schedule term {term!r}")
        sign = -1 if m.group(1) else 1
        coef = int(m.group(2)) if m.group(2) else 1
        var = (i * i if m.group(4) else i) if m.group(3) else 1
        total += sign * coef * var
    return total


def _parse_schedule(group: WordGroup, text: str) -> tuple:
    """The schedule's (n, k) pairs: grid n and box [-k, k]^d per stage, once the stage count and box sizes hold."""
    m = re.fullmatch(r"k=([^,]+),n=([^,]+),i=(\d+)\.\.(\d+)", text.replace(" ", ""))
    if not m:
        raise UsageError(f"bad schedule {text!r}, expected k=<expr>,n=<expr>,i=a..b")
    if not isinstance(group, ZdGroup):
        raise UsageError("schedules build box measures and need a Z^d group")
    lo, hi = int(m.group(3)), int(m.group(4))
    if lo < 1 or hi < lo:
        raise UsageError("schedule index range must satisfy 1 <= a <= b")
    if hi - lo + 1 > STAGE_LIMIT:
        raise SpaceTooLarge(f"the schedule's index range {lo}..{hi} lists more than {STAGE_LIMIT} stages")
    sizes = []
    for i in range(lo, hi + 1):
        k = _parse_schedule_expr(m.group(1), i)
        n = _parse_schedule_expr(m.group(2), i)
        if k < 1 or n < 1:
            raise UsageError(f"schedule produced non-positive k={k} or n={n} at i={i}")
        sizes.append((n, k))
    _check_sweep_size(group, [k for _, k in sizes])
    return tuple(sizes)


def _check_sweep_size(group: WordGroup, ks) -> None:
    """Refuse the boxes [-k, k]^d of Z^d, or F2 balls of radius k, for k in ks when one or all together
    hold more than SUPPORT_LIMIT points, before any is built: each is checked alone before its (2k+1)^d or
    2*3^k - 1 points are added, and the sum stops once it passes the limit."""
    total = 0
    for k in ks:
        _check_support_size(group, k)
        total += (2 * k + 1) ** group.d if isinstance(group, ZdGroup) else 2 * 3**k - 1
        if total > SUPPORT_LIMIT:
            raise SpaceTooLarge(f"the measures of the sweep hold more than {SUPPORT_LIMIT} points together")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_alpha(ns) -> tuple[list[str], list[tuple], dict]:
    space = _parse_space(ns.space)
    grid = _parse_eps_grid(ns.eps_grid)
    alphas = alpha_profile(space, grid)
    rows = [(eps, float(a)) for eps, a in zip(grid, alphas)]
    flags = {
        "alpha_nonincreasing": all(b <= a + 1e-12 for a, b in zip(alphas, alphas[1:])),
    }
    if any(eps == 0 for eps in grid):
        flags["alpha_zero_is_half"] = all(a == 0.5 for eps, a in rows if eps == 0)
    if ns.space.startswith("cube:"):
        n = int(ns.space[5:])
        flags["talagrand_conformance"] = all(
            a <= talagrand_bound(eps, n) + 1e-12 for eps, a in rows
        )
    return ["eps", "alpha"], rows, flags


def _cmd_profile(ns) -> tuple[list[str], list[tuple], dict]:
    base = _parse_base(ns.base)
    grid = _parse_eps_grid(ns.eps_grid) if ns.eps_grid else [ns.eps]
    product = HammingProduct(base, ns.n)
    f = fraction_differing(base.atoms[0])
    # one draw, or enumeration, and one median for every radius
    results = _profiles(product, f, 1.0, grid, ns.mode, ns.samples, ns.seed)
    rows = []
    uppers = []
    ok = True
    for eps, result in zip(grid, results):
        bound = talagrand_bound(eps, ns.n)
        rows.append((eps, ns.n, result.estimate, result.stderr, bound))
        uppers.append(float(result.upper))
        ok &= result.estimate <= bound + 4 * result.stderr + 1e-12
    flags = {"within_bound_plus_4sigma": ok, "wilson_upper": uppers}
    return ["eps", "n", "estimate", "stderr", "bound"], rows, flags


def _parse_k_range(text: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text.strip())
    if not m or int(m.group(1)) > int(m.group(2)):
        raise UsageError(f"bad k range {text!r}, expected a..b")
    return range(int(m.group(1)), int(m.group(2)) + 1)


def _parse_group_family(group: WordGroup, text: str):
    name, _, params = text.partition(":")
    kv = _parse_kv(params)
    if name.strip() != "wordlen-clamp":
        raise UsageError(f"unknown group family {name.strip()!r}")
    cap = int(kv.pop("cap", 5))
    normalize = kv.pop("normalize", "true").lower() != "false"
    if kv:
        raise UsageError(f"unknown family parameters {sorted(kv)}")
    return wordlen_clamp_family(group, [cap], normalize=normalize)


def _cmd_defect(ns) -> tuple[list[str], list[tuple], dict]:
    group = make_group(ns.group)
    ks = _parse_k_range(ns.k_range)
    if not isinstance(group, (ZdGroup, FreeGroup2)):
        raise UsageError(f"defect sweeps boxes of Z^d or balls of F2, not the group {ns.group!r}")
    # the largest measure, then all of them together, before the first or a generator is built
    _check_support_size(group, ks[-1])
    _check_sweep_size(group, ks)
    rows = []
    if isinstance(group, ZdGroup):
        family = _parse_group_family(group, ns.family)
        g = group.parse(ns.g) if ns.g else group.generators()[0]
        ok = True
        for k in ks:
            mu = folner_measure(group, k)
            d = invariance_defect(mu, g, family)
            bound = 2.0 * family.bound / (2 * k + 1)
            rows.append((k, d, bound))
            ok &= d <= bound + 1e-12
        return ["k", "defect", "bound"], rows, {"probe": "folner", "defect_within_bound": ok}
    g = group.parse(ns.g) if ns.g else "a"
    floor = 0.2
    ok = True
    for k in ks:
        mu = ball_uniform(group, k)
        family = wordlen_clamp_family(group, [k + 1], normalize=False)
        d = invariance_defect(mu, g, family)
        rows.append((k, d, floor))
        ok &= d >= floor - 1e-12
    return ["k", "defect", "bound"], rows, {"probe": "f2-contrast", "defect_above_floor": ok}


def _cmd_amplify(ns) -> tuple[list[str], list[tuple], dict]:
    if not ns.eps > 0:
        raise UsageError("--eps must be > 0")
    if ns.target_eps is not None and not ns.target_eps > 0:
        raise UsageError("--target-eps must be > 0")
    group = make_group(ns.group)
    # stage_modes counts table entries before anything is built: from the member count (a member
    # has one kernel piece or more) before any member, from the family's pieces before any box
    g = _parse_map(group, ns.g)
    count, build_family = _parse_family(group, ns.family, ns.seed)
    sizes = _parse_schedule(group, ns.schedule)
    caps = {"mode": ns.mode, "samples": ns.samples, "exact_cap": ns.exact_cap}
    stage_sizes = [(n, (2 * k + 1) ** group.d) for n, k in sizes]
    stage_modes(stage_sizes, g, count, **caps)
    family = build_family()
    stage_modes(stage_sizes, g, member_pieces(family), **caps)
    entries = tuple((n, folner_measure(group, k)) for n, k in sizes)
    schedule = Schedule(entries, ns.eps if ns.target_eps is None else ns.target_eps)
    report = run_schedule(schedule, g, family, ns.eps, seed=ns.seed, **caps)
    rows = [(r.i, r.n, r.defect, r.bound, r.conc_mass, r.median_gap) for r in report.rows]
    flags = dict(report.flags)
    flags["entry_modes"] = ",".join(report.entry_modes)
    return ["i", "n", "defect", "bound", "conc_mass", "median_gap"], rows, flags


def _random_bounded_function(group: WordGroup, gen: np.random.Generator):
    a = float(gen.uniform(0.3, 2.0))
    b = float(gen.uniform(0.0, 2.0 * math.pi))
    if isinstance(group, ZdGroup):
        coeffs = tuple(int(c) for c in gen.integers(1, 4, size=group.d))

        def key(x):
            return sum(c * xi for c, xi in zip(coeffs, x))

    elif isinstance(group, CyclicGroup):
        def key(x):
            return x

    else:
        key = group.word_length

    return lambda x: math.sin(a * key(x) + b)


def _cmd_phi_check(ns) -> tuple[list[str], list[tuple], dict]:
    group = make_group(ns.group)
    if ns.trials < 1:
        raise UsageError("--trials must be >= 1")
    # a trial draws at most 9 elements (two coefficient vectors, g and up to 6 cells), d entries each on Z^d
    _check_sample_array(ns.trials, 9 * (group.d if isinstance(group, ZdGroup) else 1))
    gen = np.random.default_rng(rng.derive_seed(ns.seed, "phi-check"))
    worst = {"unitality": 0.0, "linearity": 0.0, "monotonicity": 0.0, "equivariance": 0.0}
    one = lambda x: 1.0  # noqa: E731
    for _ in range(ns.trials):
        f1 = _random_bounded_function(group, gen)
        f2 = _random_bounded_function(group, gen)
        g = group.random_element(gen, 4)
        n = int(gen.integers(1, 7))
        h = tuple(group.random_element(gen, 4) for _ in range(n))
        alpha, beta = (float(v) for v in gen.uniform(-2.0, 2.0, size=2))
        combo = lambda x: alpha * f1(x) + beta * f2(x)  # noqa: E731
        hi = lambda x: f1(x) + abs(f2(x))  # noqa: E731
        # the transfers of each function at h, as expectations under the point mass at h
        members = [phi_member(f) for f in (one, combo, f1, f2, hi)]
        e_one, e_combo, e1, e2, e_hi = expectations(point_mass(group, h), members)[0][0].tolist()

        worst["unitality"] = max(worst["unitality"], abs(e_one - 1.0))
        worst["linearity"] = max(worst["linearity"], abs(e_combo - (alpha * e1 + beta * e2)))
        worst["monotonicity"] = max(worst["monotonicity"], e1 - e_hi)
        worst["equivariance"] = max(worst["equivariance"], phi_equivariance_check(group, f1, g, h))
    rows = [(case, residual) for case, residual in worst.items()]
    flags = {f"{case}_within_1e-12": residual <= 1e-12 for case, residual in worst.items()}
    return ["case", "residual"], rows, flags


_COMMANDS = {
    "alpha": _cmd_alpha,
    "profile": _cmd_profile,
    "defect": _cmd_defect,
    "amplify": _cmd_amplify,
    "phi-check": _cmd_phi_check,
}


# ---------------------------------------------------------------------------
# plumbing


def _build_parser() -> _Parser:
    parser = _Parser(prog="levylab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--json-summary", default=None, help="JSON summary path")
        p.add_argument("--config", default=None, help="key=value config file (flags override)")

    p = sub.add_parser("alpha", help="exact concentration function on a named space")
    p.add_argument("--space", default="two-point")
    p.add_argument("--eps-grid", default="0:1:0.1")
    common(p)

    p = sub.add_parser("profile", help="deviation profile about the median on a Hamming product")
    p.add_argument("--base", default="uniform2")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--eps-grid", default=None)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mode", choices=["exact", "sampled"], default="sampled")
    common(p)

    p = sub.add_parser("defect", help="invariance-defect sweeps (folner boxes on Z^d, ball contrast on F2)")
    p.add_argument("--group", default="Z")
    p.add_argument("--k-range", default="1..10")
    p.add_argument("--g", default=None, help="translating element (default: a generator)")
    p.add_argument("--family", default="wordlen-clamp:cap=5", help="folner-probe test family")
    common(p)

    p = sub.add_parser("amplify", help="push-forward schedule pipeline")
    p.add_argument("--group", default="Z")
    p.add_argument("--schedule", default="k=4i^2,n=i,i=1..8")
    p.add_argument("--g", default="0.35: 1|0")
    p.add_argument("--family", default="disagreement")
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--target-eps", type=float, default=None)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mode", choices=["auto", "exact", "sampled"], default="auto")
    p.add_argument("--exact-cap", type=int, default=100000)
    common(p)

    p = sub.add_parser("phi-check", help="transfer-operator identity suites")
    p.add_argument("--group", default="Z")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    common(p)

    return parser


def _load_config_file(path: str) -> dict:
    data = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                data[key.strip()] = value.strip().strip('"')
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return data


def _apply_config(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with the --config file's entries as flags ahead of the user's.

    Config values pass the same type and choice checks as flags, and an
    explicit flag wins because argparse keeps the last occurrence.
    """
    ns = parser.parse_args(argv)
    if not ns.config:
        return ns
    config = _load_config_file(ns.config)
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in config.items()]
    at = argv.index(ns.command) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        ns = _apply_config(parser, argv)
        header, rows, flags = _COMMANDS[ns.command](ns)
    except (UsageError, ValueError, WrongKind) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LevyLabError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2

    out_path = ns.out or f"{ns.command}.csv"
    summary_path = ns.json_summary or f"{ns.command}-summary.json"
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])

    config = {
        k: v for k, v in vars(ns).items() if k not in ("config",) and not k.startswith("_")
    }
    summary = {
        "command": ns.command,
        "version": __version__,
        "config": config,
        "flags": flags,
        "csv": out_path,
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
