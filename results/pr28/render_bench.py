"""Render the frozen trajectory `BENCH_substrate.json` once, as markdown.

usage: python results/pr28/render_bench.py <tree> > results/pr28/bench-substrate.md

<tree> is a checkout that still has the file and `repro report --bench`
(the parent of the change that deleted both).  The output is that
command's table byte for byte, then, for every metrics section, the
label of the last run that holds it and that run's values, then the
earlier-run values the docs quote by label.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

#: (section path, subkeys printed under their own heading instead)
SECTIONS = [
    ("kernel", ()),
    ("protocol", ("profile",)),
    ("protocol.profile", ()),
    ("checker", ()),
    ("bandwidth", ()),
    ("obs", ("traced_fig4", "plane")),
    ("obs.traced_fig4", ()),
    ("obs.plane", ()),
    ("monitor", ()),
    ("substrate.vectorised", ()),
    ("runtime.live", ()),
]

#: Values of a run that is not its section's last, quoted by label in
#: DESIGN.md ("run `pr9-runtime`": the protocol speedups per n).
CITED = [("pr9-runtime", "substrate.vectorised")]


def lookup(metrics, path):
    node = metrics
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def ticked(names):
    return ", ".join("`" + name + "`" for name in names)


def block(label, path, value, skip=(), holders=()):
    value = {k: v for k, v in value.items() if k not in skip}
    lines = [f"### `{path}` — run `{label}`\n"]
    if holders:
        lines.append(f"Held by {ticked(holders)}.")
    if skip:
        lines.append(f"Subsections with their own heading: {ticked(skip)}.")
    text = json.dumps(value, indent=2, sort_keys=True)
    lines.append("\n```json\n" + text + "\n```\n")
    return "\n".join(lines)


def main(tree):
    tree = Path(tree)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    table = subprocess.run(
        [sys.executable, "-m", "repro", "report", "--bench"],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    ).stdout
    runs = json.loads((tree / "BENCH_substrate.json").read_text())["runs"]
    out = [
        "# `BENCH_substrate.json`, rendered once\n",
        "The frozen benchmark record: ten runs of the suite `repro.bench` "
        "once held, from `baseline-seed` to `pr15-checker`.  The file, its "
        "reader and `repro report --bench` are gone; this page is what they "
        "showed, made by `results/pr28/render_bench.py` on the last tree "
        "that had them.  Timing claims "
        "are `python -m perf`'s; `results/pr20/bench-audit.md` maps each "
        "section below to the `perf` metric that answers its question.\n",
        "## `python -m repro report --bench`, byte for byte\n",
        "<!-- begin report --bench -->",
        table.rstrip("\n"),
        "<!-- end report --bench -->\n",
        "## Each section's last values\n",
        "Runs older than a section do not hold it.  Rates are per second "
        "of the recording machine and do not travel between machines.\n",
    ]
    for path, skip in SECTIONS:
        holders = [r for r in runs if lookup(r["metrics"], path) is not None]
        last = holders[-1]
        out.append(block(
            last["label"], path, lookup(last["metrics"], path), skip,
            holders=[r["label"] for r in holders],
        ))
    out.append("## Earlier values quoted by run label\n")
    for label, path in CITED:
        run = next(r for r in runs if r["label"] == label)
        out.append(block(label, path, lookup(run["metrics"], path)))
    sys.stdout.write("\n".join(out))


if __name__ == "__main__":
    main(sys.argv[1])
