#!/bin/sh
# Alternating `perf one` pairs, parent tree first in odd pairs:
#   sh <this directory>/pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD SEED PAIRS OUT
# writes `<pair> <side> <perf one's JSON line>` to OUT, the format
# the results directories' pairs.py summarises.
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 out=$6
one() {
    (cd "$1" && python -m perf one --workload "$workload" --seed "$seed" \
        --seconds 14 --trace 0 | tail -1)
}
: > "$out"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
        echo "$i $side $(one "$tree")" >> "$out"
    done
    i=$((i + 1))
done
