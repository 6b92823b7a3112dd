"""Scenes, SVG rendering (golden files), tables, suite runner, CLI."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from quadgeo.cli import main
from quadgeo.cli_figures import (
    FIXTURES,
    RECIPES,
    SUITES,
    Scene,
    UnknownFixture,
    UnknownRecipe,
    UnknownSuite,
    build_scene,
    fixture_quadrangle,
    render_svg,
    run_suite,
    table_text,
)
from quadgeo import cli_figures, drozfarny, morley, quadrangle, wallace
from quadgeo.kernel import DEFAULT_EPS, Barycentric, Circle, Line, Point
from quadgeo.quadrangle import LABELS, quadrate

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_RECIPES = (
    "twins",
    "touch32",
    "gergonne16",
    "trisequence",
    "star-of-david",
    "droz-farny-envelope",
)


class TestScene:
    def test_empty_recipe(self):
        scene = build_scene("t0", "empty")
        assert scene.elements == []
        svg = render_svg(scene).decode()
        assert "viewBox" in svg
        assert "<line" not in svg and "circle" not in svg

    def test_empty_window_rejected(self):
        with pytest.raises(Exception):
            Scene((0.0, 0.0, 0.0, 1.0))

    def test_unit_circle(self):
        scene = Scene((-2.0, -2.0, 2.0, 2.0))
        scene.add_circle(Circle(Point(0.0, 0.0), 1.0))
        svg = render_svg(scene).decode()
        assert svg.count("<circle") == 1
        assert 'r="1.000000"' in svg
        assert 'viewBox="-2.000000 -2.000000 4.000000 4.000000"' in svg

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            build_scene("t1", "twins")
        with pytest.raises(UnknownFixture, match="unknown fixture 't1'"):
            fixture_quadrangle("t1")

    def test_unknown_recipe(self):
        with pytest.raises(UnknownRecipe):
            build_scene("t0", "nonexistent")

    def test_touch32_contents(self):
        scene = build_scene("t0", "touch32")
        kinds = [e.kind for e in scene.elements]
        assert kinds.count("line") == 12
        assert kinds.count("circle") == 33  # 32 touch circles + Central

    def test_twins_contents(self):
        scene = build_scene("t0", "twins")
        labels = [e.data[2] for e in scene.elements if e.kind == "label"]
        assert len([l for l in labels if l in "1247"]) == 4
        assert len(labels) == 15  # 8 vertices + 6 midpoints + centre

    def test_lines_clipped_to_window(self):
        for recipe in GOLDEN_RECIPES:
            scene = build_scene("t0", recipe)
            x0, y0, x1, y1 = scene.window
            for e in scene.elements:
                if e.kind == "line":
                    ax, ay, bx, by = e.data
                    for x, y in ((ax, ay), (bx, by)):
                        assert x0 - 1e-6 <= x <= x1 + 1e-6
                        assert y0 - 1e-6 <= y <= y1 + 1e-6


T0_VERTICES = (Point(Fraction(36), Fraction(103)), Point(Fraction(-204), Fraction(-77)),
               Point(Fraction(132), Fraction(-77)))


def derived(q):
    """Everything a recipe, table or suite reads off a quadrangle."""
    faces = [
        (tuple(f), f.edges, f.orthocentre, f.circumcircle, f.metrics)
        for f in map(q.face, LABELS)
    ]
    return (q.vertices, q.twins, q.midpoints, q.diagonals, q.central_circle, faces)


class TestSharedFixture:
    """t0 is quadrated once per process and shared, so no reader may quadrate
    it again or change what it derives."""

    def test_lookup_returns_the_shared_quadrangle(self):
        assert fixture_quadrangle("t0") is FIXTURES["t0"]

    def test_recipes_and_rendering_quadrate_nothing(self, monkeypatch):
        calls = []
        real = quadrangle.quadrate

        def counted(*pts):
            calls.append(pts)
            return real(*pts)

        monkeypatch.setattr(quadrangle, "quadrate", counted)
        monkeypatch.setattr(cli_figures, "quadrate", counted)
        for recipe in sorted(RECIPES):
            build_scene("t0", recipe)
        assert run_suite("rendering").passed
        assert calls == []

    def test_readers_leave_the_fixture_as_quadrated(self):
        for recipe in sorted(RECIPES):
            render_svg(build_scene("t0", recipe))
        for name in sorted(SUITES):
            assert run_suite(name, count=10).passed, name
        for name in ("trisequence", "apocrypha", "guylines"):
            table_text(name)
        assert derived(FIXTURES["t0"]) == derived(quadrate(*T0_VERTICES))


class TestGolden:
    @pytest.mark.parametrize("recipe", GOLDEN_RECIPES)
    def test_byte_equality(self, recipe):
        got = render_svg(build_scene("t0", recipe))
        want = (GOLDEN / f"{recipe}.svg").read_bytes()
        assert got == want

    @pytest.mark.parametrize("recipe", GOLDEN_RECIPES)
    def test_determinism(self, recipe):
        a = render_svg(build_scene("t0", recipe))
        b = render_svg(build_scene("t0", recipe))
        assert a == b

    def test_six_decimal_coordinates(self):
        svg = render_svg(build_scene("t0", "twins")).decode()
        import re

        for m in re.finditer(r'(?:x1|y1|x2|y2|cx|cy|r)="([^"]+)"', svg):
            val = m.group(1)
            if val == "2.5":  # fixed point-marker radius, not a coordinate
                continue
            assert re.fullmatch(r"-?\d+\.\d{6}", val), val

    def test_y_axis_flipped(self):
        # vertex 1 = (36, 103) must render at y = -103 in the symmetric window
        svg = render_svg(build_scene("t0", "twins")).decode()
        assert 'cx="36.000000" cy="-103.000000"' in svg


class TestTables:
    def test_trisequence_table(self):
        text = table_text("trisequence")
        assert "23/7" in text and "1841/887" in text and "17/31" in text

    def test_apocrypha_table(self):
        text = table_text("apocrypha")
        assert "-7/23" in text and "7/601" in text

    def test_guylines_table(self):
        text = table_text("guylines")
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 64 + 16
        assert sum(1 for l in lines if "| nail" in l) == 16
        assert sum(1 for l in lines if "| peg" in l) == 16

    def test_guylines_golden(self):
        want = (GOLDEN / "guylines.txt").read_bytes()
        assert table_text("guylines").encode() == want

    def test_unknown_table(self):
        with pytest.raises(UnknownSuite):
            table_text("nonexistent")


#: (exact passes, approximate passes, skips, cases) at seed 0, count 100
CASE_COUNTS = {
    "apocrypha-table": (18, 0, 0, 18),
    "deltoid": (100, 2, 0, 102),
    "droz-farny": (105, 2, 0, 107),
    "euler-harmonic": (15, 0, 0, 15),
    "feuerbach32": (32, 0, 0, 32),
    "hexaflex": (8, 0, 0, 8),
    "lighthouse": (0, 503, 0, 503),
    "malfatti": (144, 2, 0, 146),
    "morley": (8, 100, 1, 109),
    "rendering": (7, 0, 0, 7),
    "soddy": (114, 0, 0, 114),
    "three-cycles": (7, 0, 0, 7),
    "thrice-sixteen": (10, 100, 0, 110),
    "trisequence-table": (13, 0, 0, 13),
    "wallace-sweep": (104, 0, 0, 104),
}


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nonexistent")

    def test_feuerbach32(self):
        res = run_suite("feuerbach32")
        assert res.cases == 32
        assert res.exact_passes == 32
        assert res.passed

    def test_trisequence_suite(self):
        res = run_suite("trisequence-table")
        assert res.passed

    def test_result_accounting(self):
        for name in ("euler-harmonic", "morley", "lighthouse"):
            res = run_suite(name, count=20)
            assert (
                res.exact_passes + res.approx_passes + res.skipped + len(res.failures)
                == res.cases
            ), name

    def test_skipped_draws_are_not_passes(self):
        # seed-0 draw 10 has twice-area 0.014 < 1 and is not checked
        res = run_suite("morley", seed=0, count=100)
        assert (res.exact_passes, res.approx_passes, res.skipped, res.cases) == (
            8, 100, 1, 109
        )
        assert "8 exact + 100 approx + 1 skipped of 109 cases" in res.summary()

    def test_euler_range_checked_against_its_face(self, monkeypatch):
        # a range built consistently about a wrong centre is still harmonic:
        # only the face's own circumcentre, centroid and 2O − H catch it
        def off_centre(q, label):
            h, n = q.vertices[label], q.center + Point(Fraction(1), Fraction(0))
            o = n - (h - n)
            return quadrangle.EulerRange(
                h, o, n - (h - n).scale(Fraction(1, 3)), n - (h - n).scale(3), Line.through(h, o)
            )

        monkeypatch.setattr(cli_figures, "euler_range", off_centre)
        failures = run_suite("euler-harmonic").failures
        assert not any("not harmonic" in f for f in failures)
        assert sum("not the circumcentre, centroid and 2O − H" in f for f in failures) == 4

    def test_centroid_moved_along_its_euler_line(self, monkeypatch):
        # G moved by 1e-6·(G − H) stays on the Euler line, so the four
        # points stay collinear and only the harmonic range can tell
        real = quadrangle.Triangle.point

        def moved(tri, *weights):
            p = real(tri, *weights)
            if weights != (1, 1, 1):
                return p
            return p + (p - tri.orthocentre).scale(Fraction(1, 10**6))

        monkeypatch.setattr(quadrangle.Triangle, "point", moved)
        failures = run_suite("euler-harmonic").failures
        assert failures == [f"range {l} not harmonic" for l in (1, 2, 4, 7)]

    def test_determinism(self):
        a = run_suite("soddy", seed=3, count=20)
        b = run_suite("soddy", seed=3, count=20)
        assert a == b

    @pytest.mark.parametrize(
        "suite, module, name",
        [
            ("trisequence-table", wallace, "reflect_point_in_line"),
            ("apocrypha-table", wallace, "reflect_point_in_line"),
            ("droz-farny", drozfarny, "reflect_point_in_line"),
            # only theorem_r and inside_out reflect lines in these modules
            ("droz-farny", drozfarny, "reflect_line_in_line"),
            ("morley", morley, "reflect_line_in_line"),
        ],
        ids=[
            "trisequence-table",
            "apocrypha-table",
            "droz-farny",
            "droz-farny-theorem-r",
            "morley-inside-out",
        ],
    )
    def test_theorem_miss_is_a_failed_case(self, monkeypatch, suite, module, name):
        real = getattr(module, name)

        def shifted(*args):
            out = real(*args)
            if isinstance(out, Line):
                return Line(out.a, out.b, out.c + 1)
            return Point(out.x + 1, out.y)

        monkeypatch.setattr(module, name, shifted)
        res = run_suite(suite, count=5)
        assert not res.passed
        assert res.failures[-1].startswith("IdentityViolated: ")
        assert (
            res.exact_passes + res.approx_passes + res.skipped + len(res.failures)
            == res.cases
        )
        result = CliRunner().invoke(
            main, ["verify", "--suite", suite, "--suite", "hexaflex", "--count", "5"]
        )
        assert result.exit_code == 1
        assert f"{suite}: FAIL" in result.output
        assert f"  failure: {res.failures[-1]}" in result.output
        assert "hexaflex: PASS" in result.output

    def test_malfatti_incidence_failure_recorded(self, monkeypatch):
        from quadgeo import malfatti

        def far(state):
            return {k: Barycentric(1, 1, 1) for k in "oabc"}

        monkeypatch.setattr(malfatti, "nagel_points", far)
        monkeypatch.setattr(malfatti, "gergonne_points", far)
        res = run_suite("malfatti")
        assert not res.passed
        assert any(f.startswith("guyline incidence: Nail") for f in res.failures)
        assert any(f.startswith("peG incidence: peG") for f in res.failures)

    def test_morley_incidence_failure_recorded(self, monkeypatch):
        real = morley._reflect

        def shifted(p, line):
            q = real(p, line)
            return Point(q.x + 0.1, q.y)

        monkeypatch.setattr(morley, "_reflect", shifted)
        res = run_suite("morley", count=5)
        assert not res.passed
        assert any(
            f.startswith("morley incidence: third GF circle") for f in res.failures
        )

    @pytest.mark.parametrize(
        "suite, module, name, bound",
        [
            ("droz-farny", drozfarny, "equilateral_df_check", DEFAULT_EPS),
            ("morley", morley, "orthocentric_morley_parallel", DEFAULT_EPS),
        ],
    )
    def test_float_check_reports_its_miss(self, monkeypatch, suite, module, name, bound):
        # the returned miss is the suite's residual, and fails it above the bound
        for miss in (bound / 2, bound * 2):
            monkeypatch.setattr(module, name, lambda *args: miss)
            res = run_suite(suite, count=5)
            assert res.max_residual == miss
            assert res.passed == (miss < bound)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_case_counts(self, suite):
        # a check that stops being yielded, or a draw that changes, moves
        # these counts
        res = run_suite(suite, seed=0, count=100)
        assert res.passed, res.failures[:3]
        got = (res.exact_passes, res.approx_passes, res.skipped, res.cases)
        assert got == CASE_COUNTS[suite]

    def test_all_suites_pass_smoke(self):
        for name in sorted(SUITES):
            res = run_suite(name, count=5)
            assert res.passed, (name, res.failures[:3])


class TestCLI:
    def test_verify_pass(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["verify", "--suite", "euler-harmonic", "--suite", "hexaflex"]
        )
        assert result.exit_code == 0
        assert "euler-harmonic: PASS" in result.output
        assert "hexaflex: PASS" in result.output

    def test_verify_unknown_suite(self):
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--suite", "nope"])
        assert result.exit_code == 2

    def test_verify_checks_every_suite_name_first(self):
        result = CliRunner().invoke(main, ["verify", "--suite", "feuerbach32", "--suite", "nope"])
        assert result.exit_code == 2
        assert "PASS" not in result.output

    def test_verify_rejects_negative_count(self):
        result = CliRunner().invoke(main, ["verify", "--suite", "morley", "--count", "-1"])
        assert result.exit_code == 2
        assert "PASS" not in result.output

    def test_verify_has_no_eps_option(self):
        result = CliRunner().invoke(main, ["verify", "--eps", "1e-9"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_render(self, tmp_path):
        out = tmp_path / "twins.svg"
        runner = CliRunner()
        result = runner.invoke(
            main, ["render", "--fixture", "t0", "--recipe", "twins", "-o", str(out)]
        )
        assert result.exit_code == 0
        assert out.read_bytes() == (GOLDEN / "twins.svg").read_bytes()

    def test_render_unknown_fixture(self, tmp_path):
        out = tmp_path / "x.svg"
        result = CliRunner().invoke(
            main, ["render", "--fixture", "t1", "--recipe", "twins", "-o", str(out)]
        )
        assert result.exit_code == 2
        assert "unknown fixture 't1'" in result.output
        assert not out.exists()

    def test_verify_same_under_optimize(self):
        # every check is an `if` or a returned value, never an `assert`,
        # so ``python -O`` must print the same table and exit the same way
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "quadgeo.cli", "verify", "--count", "10"],
                capture_output=True,
                env=env,
                text=True,
            )
            for flags in ([], ["-O"])
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert (runs[1].stdout, runs[1].returncode) == (
            runs[0].stdout,
            runs[0].returncode,
        )
        assert "malfatti: PASS" in runs[0].stdout

    def test_benchmark_self_test(self):
        # the benchmark perturbs results (points among them, moved with
        # dataclasses.replace) and each perturbation must be reported
        root = pathlib.Path(__file__).parent.parent
        run = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--self-test"],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stdout + run.stderr
        assert "self-test: 0 perturbation(s) not reported" in run.stderr

    def test_table(self, tmp_path):
        out = tmp_path / "t.txt"
        runner = CliRunner()
        result = runner.invoke(main, ["table", "--name", "apocrypha", "-o", str(out)])
        assert result.exit_code == 0
        assert "7/601" in out.read_text()


def test_quadrangle_fixture_canonical():
    q = fixture_quadrangle("t0")
    from fractions import Fraction as F

    assert q.center == Point(F(0), F(0))
    assert q.central_circle.r2 == 7225
    assert q.vertices[7] == Point(F(36), F(51))
