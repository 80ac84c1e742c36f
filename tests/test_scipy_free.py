"""The simulator runs on numpy alone.

scipy serves :mod:`repro.analysis.significance` and the tests; importing
``scipy.linalg`` loads every numpy submodule and roughly doubles a fresh
process's set-up time and adds ~20 MB of memory, so no simulation path
may load it.  A fresh interpreter
drives every entry point -- lockstep single-core runs, the
backward-Euler recovery stepper, a dual-core run and the sweep service
answering one submission -- and then checks ``sys.modules``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import os, sys, tempfile

    import repro
    from repro.floorplan import build_alpha21364_floorplan
    from repro.multicore import DualCoreRunSpec
    from repro.service.client import ServiceClient
    from repro.service.server import ServerThread, ServiceConfig
    from repro.sim import RunSpec, run_many, run_one
    from repro.thermal import HotSpotModel, TransientSolver

    short = dict(instructions=300_000, settle_time_s=1e-4)
    specs = [RunSpec("gzip", "PI-Hyb", **short), RunSpec("art", "DVS", **short)]
    assert all(r.instructions > 0 for r in run_many(specs))
    solver = HotSpotModel(build_alpha21364_floorplan()).make_transient()
    assert type(solver) is TransientSolver
    power = solver.network.power_vector(
        {name: 1.0 for name in solver.network.block_names}
    )
    for _ in range(3):
        solver.step(power, 3.3e-6)
    run_one(DualCoreRunSpec(("gzip", "art"), duration_s=0.002))
    with tempfile.TemporaryDirectory() as tmp:
        server = ServerThread(ServiceConfig(
            cache_dir=os.path.join(tmp, "cache"),
            socket_path=os.path.join(tmp, "svc.sock"),
            processes=1,
        )).start()
        try:
            with ServiceClient(server.service.config.socket_path) as client:
                outcomes = client.submit([RunSpec("crafty", "DVS", **short)])
            assert [o.ok for o in outcomes] == [True]
        finally:
            assert server.stop() == 0
    print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """
)


def test_simulation_never_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
