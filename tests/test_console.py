"""Checks of the command line in a fresh interpreter,
`python -m tendonfinger ...`, against whichever package that interpreter
imports. Tier-1 runs them on the source tree (PYTHONPATH=src); CI runs
this module a second time against the installed package.
"""

import math
import subprocess
import sys

import numpy as np

from tendonfinger.config import default_config_path, load_finger_config
from tendonfinger.model import THETA1_MAX, THETA1_MIN


def rebuilt_csv(resolution: int) -> bytes:
    """The workspace CSV of the shipped finger built point by point: each
    point gathers its angles and adds l * cos and l * sin to zeros, joint
    by joint, and each coordinate is written with `%.9g`."""
    geom = load_finger_config(default_config_path()).geometry
    radii = np.asarray(geom.guide_radii)
    rate = radii[0] / radii
    lines = ["link,x_m,y_m"]
    for link in (1, 2, 3):
        n = max(2, math.ceil(resolution ** (2.0 / (link + 1))))
        theta1 = np.linspace(THETA1_MIN, THETA1_MAX, n)
        phi = np.cumsum(theta1[:, None] * rate[None, :], axis=1)
        axes = [np.linspace(0.0, geom.link_lengths[j], n) for j in range(link)]
        grids = np.meshgrid(np.arange(n), *axes, indexing="ij")
        idx = grids[0].ravel()
        x = np.zeros(idx.shape)
        y = np.zeros(idx.shape)
        for j in range(link):
            x += grids[1 + j].ravel() * np.cos(phi[idx, j])
            y += grids[1 + j].ravel() * np.sin(phi[idx, j])
        for xv, yv in zip(x.tolist(), y.tolist()):
            lines.append(f"{link},{xv:.9g},{yv:.9g}")
    return ("\n".join(lines) + "\n").encode("ascii")


def test_workspace_csv_is_the_point_by_point_rebuild(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "tendonfinger", "workspace", "--resolution", "50",
         "--out", str(tmp_path / "ws")],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "ws.csv").read_bytes() == rebuilt_csv(50)
