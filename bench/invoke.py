"""Run one vortexcert command in this fresh interpreter, as the console script does.

    python3 bench/invoke.py run ARGV...          the command, untraced
    python3 bench/invoke.py trace SPANS ARGV...  the command, traced; spans go to SPANS
    python3 bench/invoke.py setup ARGV...        import, build the lattice and mirror

The package is imported from the ``src`` directory next to this one.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def setup(cli, argv) -> int:
    from vortexcert.lattice import build_lattice, reflection_data

    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    lat = cfg["lattice"]
    islands = lat["islands"] and [tuple(p) for p in lat["islands"]]
    lattice = build_lattice(lat["lx"], lat["ly"], lat["boundary"], islands=islands)
    reflection_data(lattice, cfg["plane"]["axis"], cfg["plane"]["coordinate"])
    return 0


def main(argv) -> int:
    import vortexcert.cli as cli

    mode = argv[0]
    if mode == "run":
        return cli.main(argv[1:])
    if mode == "setup":
        return setup(cli, argv[1:])
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return cli.main(argv[2:])
        finally:
            tracer.restore()
            tracer.dump(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
