"""One set-up as a user pays it: a fresh interpreter imports freewalk and loads
and validates the workload's measure, config and generator files.

    python3 perfbench/setup_probe.py <checkout root> <input list .json>

The input list holds ``[kind, path]`` pairs with kind ``config``, ``measure``
or ``generators``.  The caller times the whole process; exit 0 means every
file loaded and validated.
"""

import json
import sys
from pathlib import Path


def main(root: str, listing: str) -> int:
    sys.path.insert(0, str(Path(root) / "src"))
    import jsonschema

    import freewalk
    import freewalk.cli
    from freewalk.fields import parse_scalar

    validator = jsonschema.Draft202012Validator(freewalk.cli.CONFIG_SCHEMA)
    with open(listing) as fh:
        files = json.load(fh)
    for kind, path in files:
        if kind == "measure":
            freewalk.load_measure(path)
            continue
        with open(path) as fh:
            doc = json.load(fh)
        if kind == "config":
            if next(validator.iter_errors(doc), None) is not None:
                return 3
        elif kind == "generators":
            field = freewalk.FieldSpec.from_dict(doc["field"])
            d = doc["d"]
            for flat in doc["generators"]:
                freewalk.as_matrix(
                    [[parse_scalar(flat[i * d + j], field) for j in range(d)] for i in range(d)], field
                )
        else:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
