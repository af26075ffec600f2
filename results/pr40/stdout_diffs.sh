#!/bin/sh
# stdout of the four Figure 6 experiments and write-behind, parent
# against change:
#   sh <this directory>/stdout_diffs.sh PARENT_TREE CHANGE_TREE
# The parent printed its wall time on the status line
# (`status: PASS  (0.47s)`); that suffix is stripped from its side only.
# The change runs with numpy unimportable.  Prints one diff per
# experiment; an empty diff is the claim.
parent=$1 change=$2
for name in solver-table solver-convergence ablation-readonly async-solver write-behind; do
    echo "== $name"
    (cd "$parent" && PYTHONPATH=src python -m repro "$name") \
        | sed -E 's/^(status: (PASS|FAIL))  \([0-9.]+s\)$/\1/' > /tmp/stdout-parent.$$
    (cd "$change" && PYTHONPATH=src python -c "import sys; sys.modules['numpy'] = None; \
from repro.harness.cli import main; sys.exit(main(['$name']))" 2>/dev/null) > /tmp/stdout-change.$$
    diff /tmp/stdout-parent.$$ /tmp/stdout-change.$$
    echo "   exit $?, $(wc -l < /tmp/stdout-change.$$) lines"
done
rm -f /tmp/stdout-parent.$$ /tmp/stdout-change.$$
