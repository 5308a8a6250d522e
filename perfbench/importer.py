"""Set-up time of the package: ``import schurzeta.cli`` in a fresh
interpreter, timed under the host-speed sampler of hostspeed.py.

Prints one JSON object with the import's wall seconds (slices left out)
and its seconds scaled to the reference speed.  The sampler's own imports
(fractions and what it pulls in) are loaded before the timed import, the
same for every version of the package.  The parent starts this with
PYTHONPATH set to the checkout's ``src``; exit code 3 means the package
came from elsewhere.
"""

import json
import sys
from pathlib import Path

from hostspeed import Sampler

PERIOD_S = 0.05  # the import takes about a tenth of a second


def main():
    src = Path(sys.argv[1]).resolve() / "src"
    with Sampler(PERIOD_S) as sampler:
        import schurzeta.cli
    if src not in Path(schurzeta.cli.__file__).resolve().parents:
        print(f"schurzeta imported from {schurzeta.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    print(json.dumps({"wall_s": sampler.work_s(), "scaled_s": sampler.normalized()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
