"""Set-up probe, run as a child process by the runner.

``python3 bench/probe.py KIND CONFIG [KEY=VALUE ...]`` imports
``diffusim.cli`` and parses the workload's config the way the CLI does
(KIND ``sweep`` parses a sweep config and its base), then exits.  The
runner times it from spawn to exit: that is the set-up a user pays before
any layer does work.

``python3 bench/probe.py --versions`` prints the versions the result is
recorded with, as JSON.
"""
from __future__ import annotations

import json
import platform
import sys
from importlib import metadata


def main(argv) -> int:
    if argv == ["--versions"]:
        import diffusim

        print(json.dumps({"python": platform.python_version(),
                          "numpy": metadata.version("numpy"),
                          "scipy": metadata.version("scipy"),
                          "diffusim": diffusim.__version__}))
        return 0
    kind, config, overrides = argv[0], argv[1], argv[2:]
    from diffusim import cli

    if kind == "sweep":
        doc = cli.load_config_document(config, overrides)
        cli.config_from_dict(doc["base"])
    else:
        cli.parse_config(config, overrides)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
