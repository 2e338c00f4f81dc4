"""Traced stand-in for `python -m dqm.cli`.

    python3 -X importtime perfbench/cli_launch.py SUMMARY_JSON ARGS...

It imports dqm.cli from the checkout, installs the span wrappers of
spans.py, runs dqm.cli.main(ARGS) and, however main ends, writes the
per-name calls and self time to SUMMARY_JSON.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    dqm = worker.import_dqm(cli=True)
    import spans

    rec = spans.install()
    try:
        return dqm.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"layers": rec.summary(1), "counts": rec.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
