"""Set-up probe: what a fresh CLI process does before any simulation.

Imports `ffp_lab.cli`, validates each manifest and builds the
topologies the run would build, then exits.  The benchmark times this
in a fresh interpreter as `setup_s`.

    python3 bench/setup_probe.py SRC_DIR MANIFEST...
"""

import sys


def topologies(lattice, m):
    kind = m["kind"]
    if "edge_file" in m:
        return [lattice.read_edge_list(m["edge_file"])]
    if kind == "blur-decay":
        return [lattice.build_topology(m["d"], m["r_I"] + L + m["margin"],
                                       lattice.WINDOW) for L in m["L_list"]]
    if kind == "couple":
        return [lattice.build_topology(m["d"], m["K"], lattice.WINDOW),
                lattice.build_topology(m["d"], m["k"], lattice.TORUS)]
    return [lattice.build_topology(m["d"], m["k"], m["mode"])]


def main(argv):
    sys.path.insert(0, argv[0])
    from ffp_lab import cli, lattice
    for path in argv[1:]:
        topologies(lattice, cli.parse_manifest(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
