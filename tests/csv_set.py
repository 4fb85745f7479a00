"""Hash the output of a fixed set of ``prefrobust solve``/``sweep`` commands.

Run from anywhere:

    python tests/csv_set.py [CHECKOUT]

Each command runs in a fresh interpreter that imports ``prefrobust`` from
``CHECKOUT/src`` (by default the checkout holding this script).  One line
per command is printed: one sha256 over its standard output (the CSV) and
its standard error (the printed reward scale), then its name.  Two
checkouts print byte-identical output exactly when

    diff <(python tests/csv_set.py) <(python tests/csv_set.py OTHER)

prints nothing.  Not collected by pytest: the set takes about 13 s on two
vCPUs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = {
    "solve pro_kan 3,3": ["solve", "--branching", "3,3", "--model", "pro_kan",
                          "--seeds", "0,1"],
    "solve pro_pc K=20 3,3": ["solve", "--branching", "3,3", "--model", "pro_pc",
                              "--questionnaires", "20", "--seeds", "0,1"],
    "solve msp_pln 3,3,3": ["solve", "--branching", "3,3,3", "--model", "msp_pln"],
    "solve msp_true 3,3": ["solve", "--branching", "3,3", "--model", "msp_true"],
    "sweep R 3,3,3": ["sweep", "--param", "radius", "--values", "0,0.001,0.01,0.1,0.3",
                      "--branching", "3,3,3", "--model", "pro_kan"],
    "sweep K 3,3": ["sweep", "--param", "questionnaires", "--values", "0,10,50,200",
                    "--branching", "3,3", "--model", "pro_pc", "--seeds", "0,1"],
    "solve pro_kan R=0.1 4,4,4,4": ["solve", "--branching", "4,4,4,4", "--model", "pro_kan",
                                    "--radius", "0.1"],
    "solve pro_kan 5,5,5,5": ["solve", "--branching", "5,5,5,5", "--model", "pro_kan"],
    "solve pro_pc K=200 5,5,5": ["solve", "--branching", "5,5,5", "--model", "pro_pc",
                                 "--questionnaires", "200"],
}


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    for name, args in COMMANDS.items():
        run = subprocess.run([sys.executable, "-m", "prefrobust", *args],
                             capture_output=True, env=env, cwd=root)
        if run.returncode:
            sys.exit(f"{name}: exit {run.returncode}\n{run.stderr.decode()}")
        digest = hashlib.sha256(run.stdout + b"\0" + run.stderr).hexdigest()
        print(digest, name)


if __name__ == "__main__":
    main(sys.argv)
