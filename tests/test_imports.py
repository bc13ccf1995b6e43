"""What importing the package costs.

No scipy, no numpy.random, no product tables, no chart layer for the CLI,
and no jet module where no callback is scored.
"""

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
    # nor does importing the chart layer, which reads Signature(3, 1)'s tables when it wedges,
    # and builds the (3,1) representation and pairings on its first killing block
    cached = fresh_python(
        "import kaspin.lowdim, kaspin.geometry_lab\n"
        "from kaspin import _kernels, clifford_rep\n"
        "sizes = lambda: [f.cache_info().currsize for f in (\n"
        "    _kernels.get_tables, clifford_rep.build_rep, clifford_rep.build_pairings)]\n"
        "after_import = sizes()\n"
        "ps = kaspin.geometry_lab.preset('ads4')\n"
        "kaspin.geometry_lab.run_campaign(ps, 'einstein', n_points=2)\n"
        "after_einstein = sizes()[1:]\n"
        "kaspin.geometry_lab.run_campaign(ps, 'killing', n_points=2)\n"
        "print(after_import, after_einstein, sizes()[1:])"
    )
    assert cached == "[0, 0, 0] [0, 0] [1, 1]"


def test_import_and_a_cold_square_build_no_split_plan():
    # the split kernel's plan is built on the first single product at d >= 7,
    # which neither importing kaspin nor squaring a spinor makes
    cached = fresh_python(
        "import contextlib, io, json\n"
        "import kaspin\n"
        "from kaspin import _kernels\n"
        "from kaspin.cli import main\n"
        "after_import = _kernels.split_plan.cache_info().currsize\n"
        "spinor = json.dumps([1.0] + [0.0] * 15)\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(['square', spinor, '--p', '4', '--q', '4'])\n"
        "print(after_import, code, _kernels.split_plan.cache_info().currsize)"
    )
    assert cached == "0 0 0"


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


def test_verify_algebra_and_square_draw_nothing_at_random():
    # both are exact, so neither pays for importing numpy.random (about 16 ms cold)
    loaded = fresh_python(
        "import contextlib, io, json, sys\n"
        "from kaspin.cli import main\n"
        "spinor = json.dumps({'p': 4, 'q': 4, 'components': [1.0] + [0.0] * 15})\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(['verify-algebra', '--p', '4', '--q', '4']), main(['square', spinor])]\n"
        "print(codes, sorted(m for m in ('numpy.random', 'kaspin.rng') if m in sys.modules))"
    )
    assert loaded == "[0, 0] []"


def test_cli_and_a_cold_square_generate_no_dataclass_code():
    # a @dataclass execs its generated methods in every process, about 1 ms a class,
    # and numpy never imports dataclasses: the value types every subcommand uses are
    # __slots__ classes and NamedTuples
    loaded = fresh_python(
        "import contextlib, io, json, sys\n"
        "import kaspin.cli\n"
        "after_import = 'dataclasses' in sys.modules\n"
        "spinor = json.dumps({'p': 3, 'q': 1, 'components': [0.5, -1.0, 2.0, 0.25]})\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = kaspin.cli.main(['square', spinor])\n"
        "print(after_import, code, 'dataclasses' in sys.modules)"
    )
    assert loaded == "False 0 False"


def test_named_presets_and_payload_commands_never_import_the_jet_module():
    # kaspin._jets serves walker-generic callbacks alone, so a cold check-metric on a
    # named preset compiles none of it, heterotic background Fields included
    loaded = fresh_python(
        "import contextlib, io, json, sys\n"
        "from kaspin.cli import main\n"
        "spinor = json.dumps({'p': 3, 'q': 1, 'components': [0.5, -1.0, 2.0, 0.25]})\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out, "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(['square', spinor])]\n"
        "    alpha = json.dumps(json.loads(out.getvalue())['alpha'])\n"
        "    codes += [main([cmd, alpha]) for cmd in ('reconstruct', 'check-polyform')]\n"
        "    codes.append(main(['verify-algebra', '--p', '3', '--q', '1']))\n"
        "    for name in ('minkowski', 'ads4', 'ads4-deformed-poly', 'ads4-deformed-bessel',\n"
        "                 'heterotic-ppwave'):\n"
        "        for perturb in ('0', '0.1'):\n"
        "            codes.append(main(['check-metric', '--preset', name, '--perturb', perturb,\n"
        "                               '--check', 'killing,einstein', '--trials', '3']))\n"
        "    codes.append(main(['check-metric', '--preset', 'heterotic-ppwave',\n"
        "                       '--check', 'heterotic,bianchi', '--trials', '3']))\n"
        "before = 'kaspin._jets' in sys.modules\n"
        "import numpy as np\n"
        "from kaspin.geometry_lab import preset, run_campaign\n"
        "profile = lambda s: 1.0 / s[1] ** 2\n"
        "callbacks = {'F': profile, 'K': profile, 'q2': lambda s: np.eye(2) * profile(s)}\n"
        "run_campaign(preset('walker-generic', callbacks), 'walker', n_points=2)\n"
        "print(sorted(set(codes)), before, 'kaspin._jets' in sys.modules)"
    )
    # a walker-generic campaign is what loads it
    assert loaded == "[0] False True"
