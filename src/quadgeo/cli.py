"""Command-line interface: verification suites, figure rendering, tables."""

from __future__ import annotations

import sys

import click

from .cli_figures import (
    RECIPES,
    SUITES,
    UnknownFixture,
    UnknownRecipe,
    build_scene,
    render_svg,
    run_suite,
    table_text,
)


def _write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path``; a path that cannot be opened (say, in a
    missing directory) is reported through click, without a traceback."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise click.FileError(path, hint=exc.strerror) from None


@click.group()
def main() -> None:
    """Exact verification and figure rendering for orthocentric-quadrangle
    triangle geometry."""


@main.command()
@click.option("--suite", "suites", multiple=True, type=click.Choice(sorted(SUITES)),
              help="Suite name; repeat for several, omit for all.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=click.IntRange(min=0), default=100, show_default=True)
def verify(suites, seed, count) -> None:
    """Run verification suites; exit 0 iff everything passes."""
    names = list(suites) if suites else sorted(SUITES)
    failed = False
    for name in names:
        result = run_suite(name, seed=seed, count=count)
        click.echo(result.summary())
        for witness in result.failures:
            click.echo(f"  failure: {witness}")
        failed = failed or not result.passed
    sys.exit(1 if failed else 0)


@main.command()
@click.option("--fixture", "fixture_name", default="t0", show_default=True)
@click.option("--recipe", "recipe_name", required=True,
              type=click.Choice(sorted(RECIPES)))
@click.option("-o", "output", type=click.Path(dir_okay=False), required=True)
def render(fixture_name, recipe_name, output) -> None:
    """Render a figure recipe to an SVG file."""
    try:
        scene = build_scene(fixture_name, recipe_name)
    except (UnknownFixture, UnknownRecipe) as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    _write(output, render_svg(scene))
    click.echo(f"wrote {output}")


@main.command()
@click.option("--name", required=True,
              type=click.Choice(["trisequence", "apocrypha", "guylines"]))
@click.option("-o", "output", type=click.Path(dir_okay=False), required=True)
def table(name, output) -> None:
    """Write a plain-text table to a file."""
    _write(output, table_text(name).encode("utf-8"))
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
