"""The documented import surface: each name is imported from the module
that defines it, and the package root holds only the submodules and
__version__."""

import pkgutil
from pathlib import Path

import powsumdiv.cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```\n", 2)[1]


def test_readme_library_snippet_runs():
    exec(library_snippet(), {})


def test_package_root_binds_only_submodules_and_version():
    submodules = {info.name for info in pkgutil.iter_modules(powsumdiv.__path__)}
    public = {name for name in vars(powsumdiv) if not name.startswith("_")}
    assert public == submodules
    assert isinstance(powsumdiv.__version__, str)
