"""Print one sha256 over the Picard sweep's outputs in 16 small configurations.

Each configuration runs schemes.picard_iterate on flow_map_F data (amplitude
1e-2, seed 5) for 4 iterates of 4 steps of dt = 1e-3, with s = 2 and nu = 1:

    2D n = 16 and 3D n = 8  x  kappa 0 and 0.1
    x  no field and a single_mode field (amplitude 0.1, wavevector
    e1, omega 20) along M's third component
    x  dealias on and off

The digest covers every iterate's state at the horizon (its time and the
bytes of its field values) and the float.hex of e0, diffs, e_sup, d_int,
div_v_res and sphere_res. A change to the sweep that must keep its bits
keeps this digest; running the tool from two checkouts and comparing the
lines compares them. The package comes from the src/ tree of the checkout
this file sits in. With --each it also prints one line per configuration.

    python3 tools/picard_digest.py [--each]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from elastomag.fields import HExt, PhysParams  # noqa: E402
from elastomag.harness import generate_initial_data  # noqa: E402
from elastomag.schemes import PicardRun, picard_iterate  # noqa: E402
from elastomag.spectral import TorusGrid  # noqa: E402
from elastomag.timestepper import IntegratorConfig  # noqa: E402

# (dim, n, kappa, field, dealias), in the order the digest reads them
CONFIGS = list(product(((2, 16), (3, 8)), (0.0, 0.1), (False, True), (True, False)))


def run_digest(run: PicardRun) -> bytes:
    """The bytes one run adds to the digest."""
    h = hashlib.sha256()
    for state in run.states_at_T:
        h.update(float.hex(state.t).encode())
        for f in state.fields:
            h.update(f.values.tobytes())
    for name in ("e0", "diffs", "e_sup", "d_int", "div_v_res", "sphere_res"):
        value = getattr(run, name)
        h.update(name.encode())
        h.update(" ".join(map(float.hex, value if isinstance(value, list) else [value])).encode())
    return h.digest()


def config_digest(dim: int, n: int, kappa: float, field: bool, dealias: bool,
                  n_max: int = 4, steps: int = 4) -> bytes:
    """run_digest of one configuration's sweep."""
    grid = TorusGrid(dim=dim, n=n)
    init = generate_initial_data(grid, "flow_map_F", "A", amplitude=1e-2, seed=5)
    h_ext = HExt(kind="single_mode", amplitude=0.1, wavevector=(1,) + (0,) * (dim - 1),
                 omega=20.0) if field else HExt()
    params = PhysParams(nu=1.0, kappa=kappa, h_ext=h_ext)
    cfg = IntegratorConfig(dt=1e-3, t_end=steps * 1e-3)
    return run_digest(picard_iterate(init, params, n_max, cfg, 2, dealias))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true",
                        help="also print each configuration's own sha256")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for (dim, n), kappa, field, dealias in CONFIGS:
        one = config_digest(dim, n, kappa, field, dealias)
        total.update(one)
        if args.each:
            print(f"dim={dim} n={n} kappa={kappa:g} field={field} dealias={dealias} "
                  f"{one.hex()}", flush=True)
    print(total.hexdigest())


if __name__ == "__main__":
    main()
