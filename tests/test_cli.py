import ast
import csv
import json
import re
import time
from pathlib import Path

import pytest

from conftest import SRC, run_capped
from levylab import FinSuppMeasure, amplify, cli, hamming, wordgroups
from levylab.cli import main


def run(tmp_path, name, *args):
    out = tmp_path / f"{name}.csv"
    summary = tmp_path / f"{name}.json"
    code = main([*args, "--out", str(out), "--json-summary", str(summary)])
    return code, out, summary


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestAlphaCommand:
    def test_two_point_grid(self, tmp_path):
        code, out, summary = run(
            tmp_path, "alpha", "alpha", "--space", "two-point", "--eps-grid", "0:1:0.1"
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["eps", "alpha"]
        assert rows[1] == ["0.0", "0.5"]
        data = json.loads(summary.read_text())
        assert data["flags"]["alpha_zero_is_half"]
        assert data["flags"]["alpha_nonincreasing"]
        assert data["version"]

    def test_cube_conformance_flag(self, tmp_path):
        code, _, summary = run(
            tmp_path, "alpha", "alpha", "--space", "cube:3", "--eps-grid", "0.1:1:0.1"
        )
        assert code == 0
        assert json.loads(summary.read_text())["flags"]["talagrand_conformance"]

    def test_eps_grid_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "EPS_GRID_LIMIT", 11)
        assert cli._parse_eps_grid("0:1:0.1") == [k * 0.1 for k in range(11)]
        code, out, _ = run(tmp_path, "alpha", "alpha", "--eps-grid", "0:1.1:0.1")
        assert code == 2 and not out.exists()
        code, _, _ = run(tmp_path, "alpha", "alpha", "--eps-grid", "0:inf:0.1")
        assert code == 2

    def test_unknown_space_is_usage_error(self, tmp_path):
        code, _, _ = run(tmp_path, "alpha", "alpha", "--space", "torus")
        assert code == 1


class TestProfileCommand:
    def test_bound_flag(self, tmp_path):
        code, out, summary = run(
            tmp_path,
            "profile",
            "profile",
            "--base", "uniform2",
            "--n", "50",
            "--eps", "0.3",
            "--samples", "20000",
            "--seed", "42",
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["eps", "n", "estimate", "stderr", "bound"]
        assert len(rows) == 2
        assert json.loads(summary.read_text())["flags"]["within_bound_plus_4sigma"]

    def test_exact_small(self, tmp_path):
        code, out, _ = run(
            tmp_path, "profile", "profile", "--n", "4", "--eps", "0.3", "--mode", "exact"
        )
        assert code == 0
        est = float(read_csv(out)[1][2])
        assert est == 0.125  # P(|X/4 - 1/2| > 0.3) for X ~ Bin(4, 1/2)

    def test_exact_past_64_coordinates(self, tmp_path):
        # one tuple, far under the exact cap, on more axes than a numpy array has
        code, out, _ = run(tmp_path, "profile", "profile", "--base", "1", "--mode", "exact", "--n", "70")
        assert code == 0
        assert read_csv(out)[1][:3] == ["0.3", "70", "0.0"]

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_wilson_upper_per_eps(self, tmp_path, mode):
        code, out, summary = run(
            tmp_path, "profile", "profile", "--n", "6", "--eps-grid", "0.1:0.4:0.1",
            "--mode", mode, "--samples", "2000",
        )
        assert code == 0
        estimates = [float(row[2]) for row in read_csv(out)[1:]]
        uppers = json.loads(summary.read_text())["flags"]["wilson_upper"]
        assert len(uppers) == len(estimates) == 4
        if mode == "exact":
            assert uppers == estimates
        else:
            assert all(est < up <= 1.0 for est, up in zip(estimates, uppers))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_grid_draws_once_and_matches_per_radius_runs(self, tmp_path, monkeypatch, mode):
        # one draw (or enumeration) and one median serve every radius of the grid, with the
        # rows and flags that one run per radius gives
        medians, guides = [], []
        monkeypatch.setattr(hamming, "weighted_median", _counted(hamming.weighted_median, medians))
        monkeypatch.setattr(hamming.rng, "Guide", _counted(hamming.rng.Guide, guides))
        flags = ["--n", "8", "--mode", mode, "--samples", "3000", "--seed", "7"]
        code, out, summary = run(tmp_path, "grid", "profile", "--eps-grid", "0.05:0.45:0.1", *flags)
        assert code == 0 and len(medians) == 1 and len(guides) == (mode == "sampled")
        lines = out.read_text().splitlines()
        grid = [float(line.split(",")[0]) for line in lines[1:]]
        assert len(grid) == 5
        one_radius = []
        for eps in grid:
            code, out_eps, summary_eps = run(tmp_path, "one", "profile", "--eps", repr(eps), *flags)
            assert code == 0
            one_radius.append((out_eps.read_text().splitlines(), json.loads(summary_eps.read_text())["flags"]))
        assert len(medians) == 1 + len(grid)
        assert lines == [lines[0]] + [csv_lines[1] for csv_lines, _ in one_radius]
        got = json.loads(summary.read_text())["flags"]
        assert got["wilson_upper"] == [f["wilson_upper"][0] for _, f in one_radius]
        assert got["within_bound_plus_4sigma"] == all(f["within_bound_plus_4sigma"] for _, f in one_radius)

    def test_bad_radius_is_refused_before_drawing(self, tmp_path, monkeypatch, capsys):
        guides = []
        monkeypatch.setattr(hamming.rng, "Guide", _counted(hamming.rng.Guide, guides))
        for grid in ("0.1,0.2,-0.1", "0.1,nan"):
            code, out, _ = run(tmp_path, "bad", "profile", "--eps-grid", grid, "--samples", "100")
            assert code == 1 and not out.exists() and guides == []
            assert capsys.readouterr().err == "error: eps must be > 0\n"


def _counted(fn, calls):
    """fn, appending its arguments to calls on every call."""

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counted


class TestDefectCommand:
    def test_folner_sweep(self, tmp_path):
        code, out, summary = run(
            tmp_path, "defect", "defect", "--group", "Z", "--k-range", "1..10"
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["k", "defect", "bound"]
        assert len(rows) == 11
        assert json.loads(summary.read_text())["flags"]["defect_within_bound"]

    def test_folner_family_descriptor(self, tmp_path):
        code, out, _ = run(
            tmp_path,
            "defect",
            "defect",
            "--group", "Z",
            "--k-range", "2..2",
            "--family", "wordlen-clamp:cap=5",
        )
        assert code == 0
        assert float(read_csv(out)[1][1]) == pytest.approx(0.04, abs=1e-12)

    def test_f2_default_k_range(self, tmp_path):
        # k = 10 builds a ball of 2*3^10 - 1 atoms
        code, out, _ = run(tmp_path, "defect", "defect", "--group", "F2")
        assert code == 0
        assert len(read_csv(out)) == 11

    def test_f2_contrast(self, tmp_path):
        code, out, summary = run(
            tmp_path, "defect", "defect", "--group", "F2", "--k-range", "1..4"
        )
        assert code == 0
        flags = json.loads(summary.read_text())["flags"]
        assert flags["probe"] == "f2-contrast"
        assert flags["defect_above_floor"]
        for row in read_csv(out)[1:]:
            assert float(row[1]) >= 0.2

    @pytest.mark.parametrize(
        "group,k_range,builder,match",
        [
            ("Z^2", "1..600", "folner_measure", r"box \[-600, 600\]\^2"),
            ("F2", "1..12", "ball_uniform", "F2 ball of radius 12"),
        ],
        ids=["Z2", "F2"],
    )
    def test_last_k_is_checked_before_the_first_measure(self, tmp_path, monkeypatch, capsys, group,
                                                       k_range, builder, match):
        def no_measures(*args, **kwargs):
            raise AssertionError("a measure was built before the last k was checked")

        monkeypatch.setattr(cli, builder, no_measures)
        code, out, _ = run(tmp_path, "defect", "defect", "--group", group, "--k-range", k_range)
        assert code == 2 and not out.exists()
        assert re.search(match, capsys.readouterr().err)


    @pytest.mark.parametrize(
        "args,points",
        [
            (["defect", "--group", "Z", "--k-range", "1..3"], 3 + 5 + 7),
            (["defect", "--group", "Z^2", "--k-range", "1..2"], 9 + 25),
            (["defect", "--group", "F2", "--k-range", "1..2"], 5 + 17),
            (["amplify", "--schedule", "k=i,n=1,i=1..3", "--family", "disagreement:count=2", "--samples", "10"],
             3 + 5 + 7),
        ],
        ids=["Z", "Z2", "F2", "amplify"],
    )
    def test_sweep_limit_at_its_edge(self, tmp_path, monkeypatch, capsys, args, points):
        # the measures of one sweep or schedule may hold SUPPORT_LIMIT points together, and no more
        for module in (cli, wordgroups):
            monkeypatch.setattr(module, "SUPPORT_LIMIT", points)
        assert run(tmp_path, "edge", *args)[0] == 0
        for module in (cli, wordgroups):
            monkeypatch.setattr(module, "SUPPORT_LIMIT", points - 1)
        code, out, _ = run(tmp_path, "over", *args)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"computation error: the measures of the sweep hold more than {points - 1} points together\n"
        )

    def test_sweep_sum_stops_past_the_limit(self, monkeypatch):
        # a sweep's points are counted only until they pass the limit, not over every k
        counted = []
        monkeypatch.setattr(cli, "_check_support_size", lambda group, k: counted.append(k))
        with pytest.raises(cli.SpaceTooLarge, match="together"):
            cli._check_sweep_size(cli.make_group("Z"), range(1, 10**12))
        # the boxes for k = 1..999 hold 999^2 + 2 * 999 = 999,999 points; k = 1000 brings them past 10^6
        assert counted == list(range(1, 1001))


class TestAmplifyCommand:
    def test_small_schedule(self, tmp_path):
        code, out, summary = run(
            tmp_path,
            "amplify",
            "amplify",
            "--group", "Z",
            "--schedule", "k=4i^2,n=i,i=1..3",
            "--g", "0.35: 1|0",
            "--family", "disagreement:count=6",
            "--eps", "0.2",
            "--samples", "500",
            "--seed", "42",
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["i", "n", "defect", "bound", "conc_mass", "median_gap"]
        assert len(rows) == 4
        assert "np.float64" not in out.read_text()  # plain float reprs only
        flags = json.loads(summary.read_text())["flags"]
        assert flags["defect_within_bound"]

    def test_bad_schedule_is_usage_error(self, tmp_path):
        code, _, _ = run(tmp_path, "amplify", "amplify", "--schedule", "k=i..3")
        assert code == 1

    @pytest.mark.parametrize("hi", [cli.STAGE_LIMIT + 1, 100000, 10**30])
    def test_stage_count_is_refused_before_any_stage(self, tmp_path, monkeypatch, capsys, hi):
        def no_stage(*args):
            raise AssertionError("a stage expression was evaluated before the stage count was checked")

        monkeypatch.setattr(cli, "_parse_schedule_expr", no_stage)
        code, out, _ = run(tmp_path, "amplify", "amplify", "--schedule", f"k=2,n=i,i=1..{hi}", "--samples", "1")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"computation error: the schedule's index range 1..{hi} lists more than {cli.STAGE_LIMIT} stages\n"
        )

    def test_stage_count_at_the_cap_is_parsed(self):
        sizes = cli._parse_schedule(cli.make_group("Z"), f"k=1,n=i,i=1..{cli.STAGE_LIMIT}")
        assert len(sizes) == cli.STAGE_LIMIT and sizes[-1] == (cli.STAGE_LIMIT, 1)

    def test_exact_mode_over_cap_is_computation_error(self, tmp_path):
        # stage 2 of the default schedule has 33^2 tuples
        code, _, _ = run(tmp_path, "amplify", "amplify", "--mode", "exact", "--exact-cap", "10")
        assert code == 2

    def test_zd_step_literal(self, tmp_path):
        # commas inside parentheses belong to one Z^2 value
        code, out, _ = run(
            tmp_path, "amplify", "amplify", "--group", "Z^2", "--schedule", "k=i^2,n=i,i=1..2",
            "--g", "n=2:(1,0),(0,1)", "--family", "disagreement:count=2", "--samples", "100",
        )
        assert code == 0
        assert len(read_csv(out)) == 3
        assert cli._parse_map(cli.make_group("Z^2"), "n=3:(1,0), (0,-1),(2,2)").values == ((1, 0), (0, -1), (2, 2))
        assert cli._parse_map(cli.make_group("Z"), "n=3:1,0,2").values == ((1,), (0,), (2,))

    def test_bad_target_is_reported_before_boxes_are_built(self, tmp_path, monkeypatch, capsys):
        # the default --g "0.35: 1|0" is not a Z^2 element
        def no_boxes(*args, **kwargs):
            raise AssertionError("box measures built before --g was parsed")

        monkeypatch.setattr(cli, "folner_measure", no_boxes)
        code, _, _ = run(tmp_path, "amplify", "amplify", "--group", "Z^2")
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_box_sizes_are_capped_before_any_box_is_built(self, tmp_path, monkeypatch, capsys):
        # stage_modes reads each stage's (n, (2k+1)^d), so the table cap refuses the
        # 999,999-point box of k=499999 before folner_measure builds it
        def no_boxes(*args, **kwargs):
            raise AssertionError("a box was built before the caps were checked")

        monkeypatch.setattr(cli, "folner_measure", no_boxes)
        code, out, _ = run(tmp_path, "amplify", "amplify", "--schedule", "k=499999,n=1,i=1..1", "--samples", "1000")
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("computation error: ") and "table entries exceed the cap of" in err

    def test_member_count_is_capped_before_any_member_is_built(self, tmp_path, monkeypatch, capsys):
        # 10^6 members of one piece or more and the default target's 2 shift values
        # make at least 18,000,009 table entries on the first stage's 9 atoms, and the
        # 3 x 1 + 1 runs of the identity, the target and its grid approximation are cut
        # into a piece per member each: 22,000,009
        def no_members(*args, **kwargs):
            raise AssertionError("a member was built before the caps were checked")

        monkeypatch.setattr(cli, "disagreement_family", no_members)
        code, out, _ = run(tmp_path, "amplify", "amplify", "--family", "disagreement:count=1000000")
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert "22000009 table entries exceed the cap of 4194304: (1000000 member pieces" in err

    @pytest.mark.parametrize("eps", ["-1", "nan", "0"])
    def test_bad_eps_is_named(self, tmp_path, monkeypatch, capsys, eps):
        # --target-eps defaults to --eps; the message names the flag the user gave
        monkeypatch.setattr(cli, "folner_measure", None)
        code, _, _ = run(tmp_path, "amplify", "amplify", "--eps", eps)
        assert code == 1
        assert capsys.readouterr().err == "error: --eps must be > 0\n"

    @pytest.mark.parametrize("eps", ["-1", "nan", "0"])
    def test_bad_target_eps_is_named(self, tmp_path, monkeypatch, capsys, eps):
        monkeypatch.setattr(cli, "folner_measure", None)
        code, _, _ = run(tmp_path, "amplify", "amplify", "--target-eps", eps,
                         "--schedule", "k=400000,n=1,i=1..1")
        assert code == 1
        assert capsys.readouterr().err == "error: --target-eps must be > 0\n"

    def test_caps_are_checked_before_witnesses(self, tmp_path, monkeypatch, capsys):
        # the table cap refuses this stage as it refuses k=499999 with --samples 1000;
        # Schedule's witnesses translate each box and take tv_distance, which must not run
        def no_witness(*args, **kwargs):
            raise AssertionError("a witness was computed before the caps were checked")

        monkeypatch.setattr(FinSuppMeasure, "tv_distance", no_witness)
        monkeypatch.setattr(FinSuppMeasure, "translate", no_witness)
        monkeypatch.setattr(amplify, "TABLE_ENTRY_LIMIT", 1000)
        code, _, _ = run(tmp_path, "amplify", "amplify", "--schedule", "k=50,n=1,i=1..1", "--samples", "1000")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("computation error: ") and "table entries exceed the cap of 1000:" in err


class TestPhiCheckCommand:
    @pytest.mark.parametrize("group", ["Z", "Zm:12"])
    def test_residuals(self, tmp_path, group):
        code, out, summary = run(
            tmp_path, f"phi-{group}", "phi-check", "--group", group, "--trials", "100"
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["case", "residual"]
        cases = {row[0]: float(row[1]) for row in rows[1:]}
        assert set(cases) == {"unitality", "linearity", "monotonicity", "equivariance"}
        assert all(v <= 1e-12 for v in cases.values())
        assert all(json.loads(summary.read_text())["flags"].values())


GOLDEN = Path(__file__).parent / "data" / "cli"


def _cell_matches(got: str, want: str) -> bool:
    """Integers and words exactly; floats within 1e-12, as BLAS and libm may round the last bit differently."""
    try:
        return int(got) == int(want)
    except ValueError:
        pass
    try:
        return abs(float(got) - float(want)) <= 1e-12
    except ValueError:
        return got == want


def _flag_matches(got, want) -> bool:
    """One summary flag: strings and booleans exactly, floats as _cell_matches, lists entry by entry."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_flag_matches, got, want))
    if isinstance(want, float) and type(got) is float:
        return _cell_matches(repr(got), repr(want))
    return type(got) is type(want) and got == want


class TestGoldenOutputs:
    # the CSVs of the documented runs, recorded once and compared cell by cell

    @pytest.mark.parametrize(
        "name,args",
        [
            ("alpha", ["alpha"]),
            ("profile", ["profile"]),
            ("defect", ["defect"]),
            ("defect_F2", ["defect", "--group", "F2"]),
            ("amplify", ["amplify"]),
            ("phi-check", ["phi-check"]),
            ("profile_exact_n12", ["profile", "--mode", "exact", "--n", "12", "--base", "0.2,0.3,0.5"]),
            ("profile_n12_skewed", ["profile", "--base", "0.2,0.3,0.5", "--n", "12", "--samples", "20000"]),
            # 16 uniform points: 12,870 minimal sets, every one of mass exactly 1/2
            ("alpha_cube4", ["alpha", "--space", "cube:4", "--eps-grid", "0:1:0.125"]),
            # a target with equal neighbours, one cell once merged, and maps of Z_3 whose
            # three values repeat in neighbouring cells
            ("amplify_merged_target", ["amplify", "--schedule", "k=4i^2,n=i,i=1..4", "--g", "0.3,0.65:1|1|0",
                                       "--samples", "400", "--seed", "42"]),
            ("phi-check_Zm3", ["phi-check", "--group", "Zm:3", "--trials", "200", "--seed", "42"]),
            # four equal weights put every threshold on a bucket edge, so each bucket decides
            # its value; three do not, so their draws bisect
            ("profile_uniform4", ["profile", "--base", "uniform4", "--n", "30", "--samples", "20000"]),
            ("profile_uniform3", ["profile", "--base", "uniform3", "--n", "30", "--samples", "20000"]),
            # a two-letter shift at the benchmark's radius: aB * x cancels up to two letters of x
            ("defect_F2_aB", ["defect", "--group", "F2", "--k-range", "1..10", "--g", "aB"]),
            # two-coordinate atoms, compared with every Mismatch value of a shift at once
            ("amplify_Z2", ["amplify", "--group", "Z^2", "--schedule", "k=2i^2,n=i,i=1..3",
                            "--g", "0.4: (1,0)|(0,-1)", "--samples", "300", "--seed", "42"]),
            # words, where f(g*x) and f(x*g) differ, and two-coordinate atoms, each through the point
            # mass at the trial's map
            ("phi-check_F2", ["phi-check", "--group", "F2", "--trials", "25", "--seed", "42"]),
            ("phi-check_Z2", ["phi-check", "--group", "Z^2", "--trials", "25", "--seed", "42"]),
        ],
    )
    def test_csv_matches_the_recorded_run(self, tmp_path, name, args):
        code, out, summary = run(tmp_path, name, *args)
        assert code == 0
        got, want = read_csv(out), read_csv(GOLDEN / f"{name}.csv")
        assert got[0] == want[0]
        assert [len(row) for row in got] == [len(row) for row in want]
        for row_got, row_want in zip(got[1:], want[1:]):
            for cell_got, cell_want in zip(row_got, row_want):
                assert _cell_matches(cell_got, cell_want), (row_got, row_want)
        # the summary's flags: strings and booleans exactly, floats as CSV cells
        flags = json.loads(summary.read_text())["flags"]
        recorded = json.loads((GOLDEN / f"{name}.flags.json").read_text())
        assert sorted(flags) == sorted(recorded)
        for key, value in recorded.items():
            assert _flag_matches(flags[key], value), (key, flags[key], value)

    def test_cells_compare_by_kind(self):
        assert _cell_matches("3", "3") and not _cell_matches("3", "4")
        assert not _cell_matches("3.0", "3.1") and _cell_matches("0.1", "0.1000000000000005")
        assert _cell_matches("unitality", "unitality") and not _cell_matches("unitality", "linearity")

    def test_flags_compare_by_kind(self):
        assert _flag_matches(True, True) and not _flag_matches(True, False) and not _flag_matches(1, True)
        assert _flag_matches("exact,sampled", "exact,sampled") and not _flag_matches("exact", "sampled")
        assert _flag_matches([0.1], [0.1000000000000005]) and not _flag_matches([0.1], [0.1, 0.2])
        assert not _flag_matches([0.1], [0.2]) and not _flag_matches("0.1", 0.1)


class TestDeterminismAndConfig:
    @pytest.mark.parametrize(
        "args",
        [
            ["alpha", "--space", "two-point"],
            ["profile", "--n", "10", "--samples", "2000"],
            ["defect", "--group", "Z", "--k-range", "1..4"],
            [
                "amplify",
                "--schedule", "k=4i^2,n=i,i=1..2",
                "--family", "disagreement:count=4",
                "--samples", "300",
            ],
            ["phi-check", "--trials", "20"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        _, out1, _ = run(tmp_path, "first", *args)
        _, out2, _ = run(tmp_path, "second", *args)
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_does_not_depend_on_the_blas_kernel(self, tmp_path):
        # the CI hash-seed line; OPENBLAS_CORETYPE does nothing when numpy does not use OpenBLAS
        args = ["amplify", "--schedule", "k=4i^2,n=i,i=1..2", "--g", "0.35: 1|0",
                "--family", "disagreement:count=4", "--samples", "400", "--seed", "42"]
        csvs = []
        for name, env in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
            out = tmp_path / f"{name}.csv"
            proc = run_child(tmp_path, [*args, "--out", str(out)], 768, **env)
            assert proc.returncode == 0, proc.stderr
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = two-point\neps-grid = 0:0.5:0.5  # coarse grid\n")
        out = tmp_path / "a.csv"
        summary = tmp_path / "a.json"
        code = main(
            ["alpha", "--config", str(cfg), "--out", str(out), "--json-summary", str(summary)]
        )
        assert code == 0
        assert len(read_csv(out)) == 3  # eps 0 and 0.5 from the config file

        code = main(
            [
                "alpha",
                "--config", str(cfg),
                "--eps-grid", "0:1:1",  # flag wins over config
                "--out", str(out),
                "--json-summary", str(summary),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == ["0.0", "1.0"]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 11\n")
        code = main(["alpha", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("line", ["mode = bogus", "n = abc"])
    def test_config_values_checked_like_flags(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = main(["profile", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_bad_flag_usage_error(self, tmp_path):
        assert main(["alpha", "--nope"]) == 1
        assert main([]) == 1


class TestMalformedValues:
    @pytest.mark.parametrize(
        "args",
        [
            ["alpha", "--space", "cube:x"],
            ["amplify", "--group", "Z^x"],
            ["defect", "--group", "Zm:1"],
            # defect sweeps boxes on Z^d and balls on F2 only; the group picks the probe
            ["defect", "--group", "Zm:5"],
            ["defect", "--probe", "folner"],
            ["amplify", "--g", "n=x:1"],
            ["amplify", "--g", "0.x:1|0"],
            ["amplify", "--family", "disagreement:count=abc"],
            ["defect", "--family", "wordlen-clamp:cap=z"],
            ["profile", "--n", "0"],
            ["amplify", "--group", "Q"],
            ["amplify", "--g", "0.35:x|0"],
            ["amplify", "--group", "Z^2", "--schedule", "k=1,n=1,i=1..1"],
            ["defect", "--group", "F2", "--g", "q"],
            ["amplify", "--target-eps", "0"],
            ["profile", "--eps", "0"],
            ["profile", "--base", "0.5,0.6"],
            # math.fsum overflows on these
            ["profile", "--base", "1e308,1e308"],
            # numpy's "low >= high" when drawn
            ["amplify", "--family", "disagreement:pieces=0"],
            ["amplify", "--family", "disagreement:radius=-1"],
            ["amplify", "--family", "cell-indicator-smoothed:radius=-1"],
            ["profile", "--base", "nan,1"],
            ["alpha", "--eps-grid", "nan"],
            ["profile", "--eps", "nan"],
            ["amplify", "--eps", "nan", "--schedule", "k=1,n=1,i=1..2"],
            ["amplify", "--target-eps", "nan", "--schedule", "k=1,n=1,i=1..2"],
            # runs that would check nothing
            ["phi-check", "--trials", "-3"],
            ["phi-check", "--trials", "0"],
            ["alpha", "--eps-grid", "0.1:0.05:0.01"],
            ["alpha", "--eps-grid", "0:nan:0.1"],
            ["profile", "--eps-grid", ","],
        ],
    )
    def test_usage_error_without_traceback(self, tmp_path, capsys, args):
        code, out, _ = run(tmp_path, "bad", *args)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["profile", "--base", "1e308,1e308"], "weights must be a probability vector"),
        (["amplify", "--family", "disagreement:pieces=0"], "max_pieces must be >= 1"),
        (["amplify", "--family", "disagreement:radius=-1"], "radius must be >= 0"),
        (["amplify", "--family", "cell-indicator-smoothed:radius=-1"], "radius must be >= 0"),
    ])
    def test_refused_inputs_are_named(self, tmp_path, capsys, args, message):
        assert run(tmp_path, "bad", *args)[0] == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def run_child(tmp_path, args, limit_mib, **env):
    """Run the CLI in a child process whose address space is capped at limit_mib, with env added."""
    return run_capped(["-m", "levylab.cli", *args], limit_mib, env, cwd=tmp_path)


class TestDefaultsSmoke:
    # every subcommand at its default flags, in a child with a capped address space

    @pytest.mark.parametrize("command", ["alpha", "profile", "defect", "amplify", "phi-check"])
    def test_default_run_succeeds(self, tmp_path, command):
        proc = run_child(tmp_path, [command], 768)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert (tmp_path / f"{command}.csv").exists()
        assert (tmp_path / f"{command}-summary.json").exists()

    @pytest.mark.parametrize(
        "args",
        [["profile", "--samples", "200000000"], ["amplify", "--samples", "100000000"]],
    )
    def test_huge_sample_counts_are_refused_before_drawing(self, tmp_path, args):
        proc = run_child(tmp_path, args, 768)
        assert proc.returncode == 2
        assert proc.stderr.startswith("computation error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["defect", "--k-range", "100000000..100000000"],
            ["defect", "--group", "Z^2", "--k-range", "5000..5000"],
            ["defect", "--group", "F2", "--k-range", "16..16"],
            ["amplify", "--schedule", "k=100000000,n=1,i=1..1"],
            ["alpha", "--eps-grid", "0:1:1e-9"],
            ["profile", "--eps-grid", "0.01:1:1e-9"],
            ["amplify", "--schedule", "k=499999,n=1,i=1..1", "--samples", "1000"],
            ["amplify", "--exact-cap", "1000000000", "--schedule", "k=4i^2,n=i,i=1..4"],
            ["profile", "--base", "uniform100000000", "--n", "2"],
            ["defect", "--k-range", "1..100000000"],
            ["defect", "--group", "F2", "--k-range", "1..100000000"],
            ["amplify", "--group", "Z^2", "--g", ":(1,0)", "--schedule", "k=i,n=1,i=1..600", "--samples", "100"],
            # counts past int's 4,300-digit text limit, or too large to form at all
            ["alpha", "--space", "cube:1000"],
            ["alpha", "--space", "cube:20000"],
            ["alpha", "--space", "cube:10000000000"],
            ["profile", "--mode", "exact", "--n", "100000"],
            ["profile", "--mode", "exact", "--n", "10000000000"],
            ["defect", "--group", "Z^100000", "--k-range", "1..1"],
            ["amplify", "--schedule", "k=1,n=10000000,i=1..1", "--samples", "10"],
            # every trial's draws together, and every box of a schedule together
            ["phi-check", "--group", "Z^10000000", "--trials", "1"],
            ["phi-check", "--trials", "100000000"],
            ["amplify", "--group", "Z^2", "--g", ":(1,0)", "--schedule", "k=i,n=1,i=1..499", "--samples", "100"],
            ["defect", "--k-range", "1..499999"],
            ["defect", "--group", "Z^2", "--k-range", "1..499"],
            # a member has one kernel piece or more, so the count alone exceeds the table cap
            ["amplify", "--family", "disagreement:count=100000000", "--samples", "10"],
            # 3 x 10^5 + 1 planned runs, each cut into a piece per member: 20 x 300,001 entries
            ["amplify", "--schedule", "k=1,n=100000,i=1..1", "--samples", "1"],
            # 100,000 stages, refused by their count before any stage is parsed
            ["amplify", "--schedule", "k=2,n=i,i=1..100000", "--samples", "1"],
        ],
    )
    def test_oversized_inputs_are_refused_before_building(self, tmp_path, args):
        proc = run_child(tmp_path, args, 768)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("computation error: ") and "Traceback" not in proc.stderr

    def test_a_long_telescope_runs_in_seconds(self, tmp_path):
        # the default target moves 1,050 of 3,000 cells; each step is formed from the cell
        # blocks of the identity and the grid approximation, not from a 3,000-cell prefix map
        args = ["amplify", "--schedule", "k=1,n=3000,i=1..1", "--samples", "1", "--seed", "42"]
        start = time.perf_counter()
        proc = run_child(tmp_path, args, 768)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 5.0

    def test_a_fine_eps_grid_costs_one_sort(self, tmp_path):
        # 5,000 radii on the default 10^5 samples: each radius is a binary search, not a pass
        start = time.perf_counter()
        proc = run_child(tmp_path, ["profile", "--eps-grid", "0.0001:0.5:0.0001"], 768)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert len(read_csv(tmp_path / "profile.csv")) == 5001
        assert elapsed < 2.0

    def test_large_cube_is_refused_before_building(self, tmp_path):
        proc = run_child(tmp_path, ["alpha", "--space", "cube:10"], 1024)
        assert proc.returncode == 2
        assert proc.stderr.startswith("computation error: ") and "Traceback" not in proc.stderr


def test_every_export_has_a_caller_outside_the_tests():
    # a name that only the tests call belongs in tests/conftest.py, not in the package's surface
    # only code counts: a name, an attribute or an import, not a word in a docstring or in prose
    root = SRC.parent
    tree = ast.parse((SRC / "levylab" / "__init__.py").read_text(encoding="utf-8"))
    exported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    paths = [p for p in (SRC / "levylab").glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "scripts").glob("*.py"), *(root / "bench").glob("*.py")]
    used = set()
    for node in (n for p in paths for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(a.name for a in node.names)
    assert [name for name in exported if name not in used] == []
