"""Import layering: a process loads only the code it runs.

Package façades export lazily, so importing the serve and cluster boot
path must not drag in scipy, networkx, or the simulators; and a started
engine must already hold every module its handlers reach, so a worker's
readiness banner is not a promise the first queries pay for.  Each
check runs in a fresh interpreter: this test process has long since
imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

#: One question of each query kind.
FIRST_ANSWERS = (
    ("node_hours", {"scenario": "k_computer", "speedup": 4.0}),
    ("costbenefit", {"scenario": "anl", "me_speedup": 4.0}),
    ("me_speedup", {"device": "v100", "fmt": "fp16"}),
    ("roofline", {"device": "a100", "flops": 2e12, "nbytes": 4e9}),
    ("density", {"device_a": "v100", "device_b": "a100"}),
    ("ozaki", {"implementation": "DGEMM-TC", "input_range": 1e8}),
)

#: Modules no serve or cluster process needs.
HEAVY = ("scipy", "networkx", "repro.dl", "repro.blas", "repro.spackdep")

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
)


def _run(script: str):
    """Run ``script`` in a fresh interpreter; return its last stdout
    line, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_boot_path_loads_no_heavy_module():
    steps = [
        "import repro",
        "import repro.serve.http",
        "import repro.cluster.supervisor",
        "from repro.serve.handlers import DEFAULT_REGISTRY",
    ]
    loaded = _run(f"""
        import json, sys
        heavy, loaded = {HEAVY!r}, {{}}
        for step in {steps!r}:
            exec(step)
            loaded[step] = [m for m in heavy if m in sys.modules]
        print(json.dumps(loaded))
    """)
    assert loaded == {step: [] for step in steps}


def test_paper_front_end_loads_neither_networkx_nor_scipy():
    # A cold repro-paper pays networkx's import only when it builds the
    # Spack index, never at start-up.
    assert _run("""
        import json, sys
        import repro.harness.runner
        print(json.dumps([m for m in ("networkx", "scipy") if m in sys.modules]))
    """) == []


@pytest.mark.parametrize("module", [
    "repro.cluster.protocol", "repro.cluster.router",
    "repro.cluster.supervisor",
])
def test_cluster_modules_do_not_load_the_front_end(module):
    # A worker runs repro.serve.http as __main__; loading it again under
    # its own name would run a second copy of the module.
    assert _run(f"""
        import json, sys
        import {module}
        print(json.dumps('repro.serve.http' in sys.modules))
    """) is False


def test_started_engine_has_loaded_every_module_its_handlers_reach():
    new = _run(f"""
        import asyncio, json, sys
        from repro.harness.cache import SUBSTRATE_CACHE
        from repro.serve.engine import QueryEngine

        async def first_answers():
            engine = QueryEngine()
            await engine.start()
            try:
                SUBSTRATE_CACHE.clear()
                before = set(sys.modules)
                for kind, params in {FIRST_ANSWERS!r}:
                    await engine.submit(kind, params)
                return sorted(set(sys.modules) - before)
            finally:
                await engine.stop()

        print(json.dumps(asyncio.run(first_answers())))
    """)
    assert [m for m in new if m.split(".")[0] == "repro"] == []


@pytest.mark.parametrize("package", PACKAGES)
def test_facade_exports_resolve(package):
    module = importlib.import_module(package)
    listed = set(dir(module))
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed, f"{package}.{name} missing from dir()"
        # A submodule of the same name would shadow a lazy export.
        assert not isinstance(value, types.ModuleType), name
    with pytest.raises(AttributeError, match="no attribute"):
        getattr(module, "no_such_export")
