#!/usr/bin/env bash
# Print, as Markdown lines, the numbers ROADMAP.md tracks for this checkout:
# the src/stiffcal line count, the size of stiffcal.__all__, the tier-1 test
# count and the deterministic work counters of the benchmark workloads.
#
# Given BASE, a commit, it checks BASE out once as a temporary git worktree
# and adds the src/stiffcal shortstat against it, the stiffcal.__all__ names
# added and removed, and the README's command-line block run twice, each in
# a fresh directory with this checkout's configs/ and data/, under
# PYTHONHASHSEED 0: once through a `stiffcal` importing this checkout's src/
# and once through one importing the base's.  It lists the output files that
# differ between the two runs, manifest.json aside (manifests hold absolute
# paths), and for each differing JSON or CSV output the largest change among
# its numbers relative to the largest base magnitude under the same JSON key
# (list indices dropped) or in the same CSV column, with its JSON path or CSV
# line and column, so a move in the trailing digits shows its size against
# the largest value of its kind.  Numbers whose base and new magnitudes are
# both below 1e-12 of the file's largest base magnitude are round-off; they
# are left out of that ranking and counted.  It says whether the two runs
# printed the same lines.  It also runs
# the classes of bench/workloads.py on their tiny inputs, seed 1, once
# through this checkout's src/ and once through the base's, and says for
# each workload whether the digests of its payloads are the base's.
#
# The report never fails: a change may alter a payload on purpose, and a
# base that cannot be checked out, imported or run is reported as such.
# scripts/readme_block.sh holds the README checks that do fail.
#
#   bash scripts/ci_summary.sh [BASE] >> "$GITHUB_STEP_SUMMARY"
set -uo pipefail

base="${1:-}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'git -C "$root" worktree remove --force "$tmp/base-src" 2>/dev/null; rm -rf "$tmp"' EXIT
cd "$root" || exit 0
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

api_names() {  # api_names SRC: stiffcal.__all__ imported from SRC, one name a line, sorted
    PYTHONPATH="$1" python -c 'import stiffcal; print(*sorted(stiffcal.__all__), sep="\n")'
}

payload_digests() {  # payload_digests SRC DIR: per bench workload, one digest of the
    # payloads of one pass over its tiny seed-1 inputs through SRC, working in DIR
    PYTHONPATH="$1:$root/bench" PYTHONDONTWRITEBYTECODE=1 python - "$2" <<'EOF'
import hashlib, sys
from workloads import WORKLOADS
for name, workload in WORKLOADS.items():
    wl = workload(1, "tiny", f"{sys.argv[1]}/{name}")
    wl.warm_up()
    h = hashlib.sha256()
    for i in range(wl.unit):
        out = wl.observe(i, wl.op(i))
        h.update(f"{out.digest} {sorted(out.problems)}\n".encode())
    print(name, h.hexdigest())
EOF
}

n_api="$(python -c 'import stiffcal; print(len(stiffcal.__all__))')"
echo "src/stiffcal lines: $(cat src/stiffcal/*.py | wc -l); public API: $n_api names in stiffcal.__all__"
if [ -n "$base" ] &&
        ! git worktree add --detach --quiet "$tmp/base-src" "$base" 2>"$tmp/err"; then
    echo "Not compared against $base: it could not be checked out ($(tr '\n' ' ' <"$tmp/err"))."
    base=""
fi
if [ -n "$base" ]; then
    change="$(git diff --shortstat "$base" -- src/stiffcal)"
    echo "src/stiffcal change since $base: ${change:-none}"
    if api_names "$tmp/base-src/src" >"$tmp/api-base.txt"; then
        api_names src >"$tmp/api-head.txt"
        added="$(LC_ALL=C comm -13 "$tmp/api-base.txt" "$tmp/api-head.txt" | paste -sd ' ' -)"
        removed="$(LC_ALL=C comm -23 "$tmp/api-base.txt" "$tmp/api-head.txt" | paste -sd ' ' -)"
        echo "stiffcal.__all__ since $base: added ${added:-none}; removed ${removed:-none}"
    else
        echo "stiffcal.__all__ not compared: the base could not be imported"
    fi
fi
echo "tier-1 tests: $(python -m pytest --collect-only -q --continue-on-collection-errors \
    | tail -n 1 | sed -E 's/ tests? collected//; s/ in [0-9.]+s$//')"

echo "work counters per operation (bench/run.py --seed 1 --size tiny --trace 1):"
for workload in design calibrate predict_map; do
    python bench/run.py --workload "$workload" --seed 1 --size tiny --trace 1 --seconds 0.5 \
        | tail -n 1 | WORKLOAD="$workload" python -c '
import json, os, sys
for name, metric in sorted(json.load(sys.stdin)["metrics"].items()):
    if name.endswith((".calls", ".iterations")) or name == "doe.n_evaluations":
        print(os.environ["WORKLOAD"], name, format(metric["value"], ".6g"))
' || echo "$workload: no counters (bench/run.py failed)"
done
[ -n "$base" ] || exit 0

echo "### Bench payloads: this checkout against $base"
if payload_digests src "$tmp/bench-head" >"$tmp/digests-head.txt" 2>"$tmp/err" &&
        payload_digests "$tmp/base-src/src" "$tmp/bench-base" >"$tmp/digests-base.txt" \
            2>"$tmp/err"; then
    while read -r workload digest; do
        if grep -qxF "$workload $digest" "$tmp/digests-base.txt"; then
            echo "$workload (tiny, seed 1): payload digests identical to the base's"
        else
            echo "$workload (tiny, seed 1): payload digests differ from the base's"
        fi
    done <"$tmp/digests-head.txt"
else
    echo "Not compared: a workload failed. Its last lines:"
    printf '```\n%s\n```\n' "$(tail -n 5 "$tmp/err")"
fi

echo "### README block: this checkout against $base"
python - README.md "$tmp/block.sh" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
open(sys.argv[2], "w").write(block)
EOF

for side in head base; do  # the block in $tmp/SIDE through a `stiffcal` importing SIDE's src/
    src="$root/src"
    [ "$side" = base ] && src="$tmp/base-src/src"
    mkdir -p "$tmp/$side/bin"
    printf '#!/bin/sh\nPYTHONPATH="%s" exec python -m stiffcal.cli "$@"\n' "$src" >"$tmp/$side/bin/stiffcal"
    chmod +x "$tmp/$side/bin/stiffcal"
    cp -r configs data "$tmp/$side"
    if ! (cd "$tmp/$side" && PATH="$tmp/$side/bin:$PATH" PYTHONHASHSEED=0 bash -e "$tmp/block.sh") \
            >"$tmp/$side.log" 2>&1; then
        echo "Not compared: the block failed with the $side's src/. Its last lines:"
        printf '```\n%s\n```\n' "$(tail -n 5 "$tmp/$side.log")"
        exit 0
    fi
done

changed="$(cd "$tmp" && diff -rq -x manifest.json head/out base/out)"
if [ -z "$changed" ]; then
    echo "Every output file is byte-identical, manifest.json aside."
else
    printf 'Output files that differ, manifest.json aside:\n```\n%s\n```\n' "$changed"
    echo "Largest change |this - base| / max |base| among the numbers of each differing JSON or CSV output, the max taken under the same JSON key (list indices dropped) or CSV column, numbers below 1e-12 of the file's largest |base| left out:"
    (cd "$tmp" && python - <<'PY'
import csv, filecmp, json, math, os, re

def leaves(x, where=""):  # (JSON path, value) of every leaf of a parsed JSON document
    if isinstance(x, dict):
        for k, v in x.items():
            yield from leaves(v, f"{where}.{k}" if where else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from leaves(v, f"{where}[{i}]")
    else:
        yield where, x

def read(path):  # {where: (group, value)} of a JSON document's leaves or a
    # CSV file's cells; a leaf's group is its path without list indices, a
    # cell's its column
    with open(path, newline="") as f:
        if path.endswith(".json"):
            return {w: (re.sub(r"\[\d+\]", "", w), x) for w, x in leaves(json.load(f))}
        rows = list(csv.reader(f))
    out = {}
    for n, row in enumerate(rows, start=1):
        for c, x in enumerate(row):
            column = rows[0][c] if c < len(rows[0]) else c + 1
            out[f"line {n}, column {column}"] = (f"column {column}", x)
    return out

def number(x):
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None

for dirpath, _, names in sorted(os.walk("head/out")):
    for name in sorted(names):
        head = os.path.join(dirpath, name)
        base = "base" + head[len("head"):]
        if (name == "manifest.json" or not name.endswith((".json", ".csv"))
                or not os.path.isfile(base)
                or filecmp.cmp(head, base, shallow=False)):
            continue
        this, was = read(head), read(base)
        scale = {}  # the largest finite base magnitude in each group
        for group, y in was.values():
            v = number(y)
            if v is not None and math.isfinite(v):
                scale[group] = max(scale.get(group, 0.0), abs(v))
        # numbers this far below the file's largest are round-off: not ranked
        floor = 1e-12 * max(scale.values(), default=0.0)
        worst, other, tiny = None, None, 0
        for where in list(was) + [w for w in this if w not in was]:
            (group, x), (_, y) = this.get(where, (None, None)), was.get(where, (None, None))
            u, v = number(x), number(y)
            if u is None or v is None or math.isnan(u) or math.isnan(v):
                if repr(x) != repr(y) and other is None:
                    other = f"{where} (base {y!r}, this {x!r})"
            elif u != v and abs(u) < floor and abs(v) < floor:
                tiny += 1
            elif u != v:
                rel = abs(u - v) / scale[group] if scale.get(group) else math.inf
                if worst is None or rel > worst[0]:
                    worst = (rel, where, y, x)
        line = f"- {head[len('head/out/'):]}:"
        if worst:
            line += f" {worst[0]:.3g} at {worst[1]} (base {worst[2]}, this {worst[3]})"
        if other:
            line += f"; the first non-numeric or missing value that differs is at {other}"
        if tiny:
            line += (f"; {tiny} differing number(s) below 1e-12 of the file's largest"
                     " |base| left out")
        print(line if worst or other or tiny else line + " no value differs (the formatting does)")
PY
    ) || echo "(the relative changes could not be computed)"
fi
if cmp -s "$tmp/base.log" "$tmp/head.log"; then
    echo "The block printed identical lines."
else
    echo "The block printed different lines (diff from the base's to this checkout's):"
    printf '```\n%s\n```\n' "$(diff "$tmp/base.log" "$tmp/head.log")"
fi
