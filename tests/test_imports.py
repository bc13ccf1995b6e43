"""What importing the package costs: no scipy, no product tables, no chart layer for the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import kaspin

SRC = str(Path(kaspin.__file__).resolve().parents[1])


def fresh_python(code):
    """Run code in a new interpreter that imports this checkout's kaspin; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.strip()


def test_no_module_imports_scipy():
    loaded = fresh_python(
        "import sys, kaspin.cli, kaspin.geometry_lab, kaspin.lowdim\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert loaded == "[]"


def test_cli_imports_the_chart_layer_only_for_check_metric():
    loaded = fresh_python("import sys, kaspin.cli\nprint('kaspin.geometry_lab' in sys.modules)")
    assert loaded == "False"


def test_importing_lowdim_builds_no_product_tables():
    cached = fresh_python(
        "import kaspin.lowdim\n"
        "from kaspin import _kernels\n"
        "print(_kernels.get_tables.cache_info().currsize)"
    )
    assert cached == "0"


def test_chart_layer_loads_only_the_standard_library_numpy_and_kaspin():
    outside = fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kaspin.geometry_lab\n"
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'numpy', 'kaspin'}))"
    )
    assert outside == "[]"


def test_square_reconstruct_and_check_polyform_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, about 16 ms of a cold `kaspin square`
    loaded = fresh_python(
        "import contextlib, io, json, sys\n"
        "from kaspin.cli import main\n"
        "spinor = json.dumps({'p': 3, 'q': 1, 'components': [0.5, -1.0, 2.0, 0.25]})\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out, "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(['square', spinor])]\n"
        "    alpha = json.dumps(json.loads(out.getvalue())['alpha'])\n"
        "    codes += [main([cmd, alpha]) for cmd in ('reconstruct', 'check-polyform')]\n"
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    assert loaded == "[0, 0, 0] False"
