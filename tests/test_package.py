import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relkin
from relkin import (checks, errors, groupoid, isometry, kinematics, linker,
                    metric_core)

MODULES = (errors, metric_core, isometry, linker, kinematics, groupoid, checks)
DATA = Path(__file__).parent / "data"
# What a kinematics or groupoid caller never needs.
SUITE = {"relkin.checks", "relkin.sampling", "relkin.scenario", "relkin.cli"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_exports_every_module_name(module):
    for name in module.__all__:
        assert name in relkin.__all__, name
        assert getattr(relkin, name) is getattr(module, name)


def fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('relkin'))"


@pytest.mark.parametrize("statement", ["import relkin.kinematics", "import relkin.groupoid",
                                       "from relkin import Observer, hom"])
def test_library_imports_load_no_suite(statement):
    loaded = fresh(f"import json, sys\n{statement}\nprint(json.dumps({LOADED}))")
    assert "relkin.kinematics" in loaded
    assert not SUITE & set(loaded)


COMMAND_RUN = f"""
import contextlib, io, json, sys
from relkin import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), {LOADED}]))
"""


@pytest.mark.parametrize("command, scenario", [
    ("boost", "boost"), ("transform", "transform"), ("add", "add"), ("accel", "accel"),
    ("link", "golden_link"), ("groupoid", "groupoid")])
def test_one_shot_commands_load_no_suite(command, scenario):
    code, out, loaded = fresh(COMMAND_RUN, command, "--scenario", str(DATA / f"{scenario}.json"))
    assert not {"relkin.checks", "relkin.sampling"} & set(loaded)
    out = re.sub(r',"wall_time_s":[^,}]+', "", out) + f'{{"exit_code":{code}}}\n'
    assert out == (DATA / f"{scenario}.jsonl").read_text()


def test_all_keeps_the_export_modules_names_in_order():
    listed = fresh(f"import json, sys, relkin\nprint(json.dumps([relkin.__all__, {LOADED}]))")
    assert listed == [[name for module in MODULES for name in module.__all__] + ["Scenario"],
                      ["relkin"]]


def test_star_import_binds_every_name():
    unbound = fresh("import json, relkin\nnames = {}\nexec('from relkin import *', names)\n"
                    "print(json.dumps([n for n in relkin.__all__ if n not in names "
                    "or names[n] is not getattr(relkin, n)] + "
                    "[n for n in relkin.__all__ if n not in dir(relkin)]))")
    assert unbound == []


@pytest.mark.parametrize("name", ["Velocity4", "_EXPORT", "__wrapped__", "__path_hooks__"])
def test_unknown_names_raise_without_imports(name):
    code = ("import json, sys, relkin\n"
            f"try:\n    getattr(relkin, {name!r})\nexcept AttributeError as exc:\n"
            f"    print(json.dumps([str(exc), {LOADED}]))")
    assert fresh(code) == [f"module 'relkin' has no attribute {name!r}", ["relkin"]]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_export_module_lists_its_row_of_the_package_table(module):
    assert module.__all__ is relkin._EXPORTS[module.__name__.removeprefix("relkin.")]


@pytest.mark.parametrize("module", [m.__name__ for m in MODULES] + ["relkin.scenario"])
def test_star_import_of_a_module_binds_its_row(module):
    row = relkin._EXPORTS[module.removeprefix("relkin.")]
    bound = fresh(f"import json\nnames = {{}}\nexec('from {module} import *', names)\n"
                  "import relkin\n"
                  f"print(json.dumps([[n for n in names if n != '__builtins__'], "
                  f"[names[n] is getattr(relkin, n) for n in {list(row)!r}]]))")
    extra = ["load", "from_dict"] if module == "relkin.scenario" else []
    assert bound == [list(row) + extra, [True] * len(row)]
