"""Every package name the README cites in backticks still exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import t2vad

README = Path(__file__).resolve().parents[1] / "README.md"

# each package module by its last name part (`deepsvdd`: `t2vad.detect.deepsvdd`)
MODULES = {"t2vad": "t2vad", **{info.name.rsplit(".", 1)[-1]: info.name for info in
                                pkgutil.walk_packages(t2vad.__path__, "t2vad.")}}


def cited_names(text: str) -> set[str]:
    """The dotted names that open a backticked span of `text` and whose
    first part is a package module (`detect.fit` of `detect.fit(kinds, x)`)."""
    names = (re.match(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", span)
             for span in re.findall(r"`([^`\n]+)`", text))
    return {name[0] for name in names if name and name[0].split(".")[0] in MODULES}


def resolves(name: str) -> bool:
    """Whether `name` is a package module, or an attribute reached from one."""
    first, *rest = name.split(".")
    try:
        owner = importlib.import_module(MODULES[first])
        for part in rest:
            owner = (getattr(owner, part) if hasattr(owner, part)
                     else importlib.import_module(f"{owner.__name__}.{part}"))
    except (ImportError, AttributeError):
        return False
    return True


def test_cited_names_and_resolves_tell_live_names_from_stale_ones():
    text = ("`detect.fit(kinds, x)`, `deepsvdd.WIDTHS`, `t2vad.cli`, `lof.checked_state`, "
            "`np.cov`, `split.test`, `LayerStack.astype`, `rng.random` and `detect`")
    names = cited_names(text)
    assert names == {"detect.fit", "deepsvdd.WIDTHS", "t2vad.cli", "lof.checked_state",
                     "rng.random"}
    assert {name for name in names if not resolves(name)} == {"lof.checked_state",
                                                             "rng.random"}


def test_every_package_name_the_readme_cites_resolves():
    names = cited_names(README.read_text())
    assert len(names) > 20
    assert {name for name in names if not resolves(name)} == set()
