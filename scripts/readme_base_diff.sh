#!/usr/bin/env bash
# Run the README's command-line block twice, each in a fresh directory with
# this checkout's configs/ and data/, under PYTHONHASHSEED 0: once through a
# `stiffcal` that imports this checkout's src/, and once through one that
# imports the src/ of another commit, checked out as a temporary git
# worktree.  Print a Markdown report of the output files that differ between
# the two runs, manifest.json aside (manifests hold absolute paths), and of
# whether the two runs printed the same lines.
#
# The report never fails: a change may alter a payload on purpose, and a
# commit that cannot run this checkout's block is reported as such.
# scripts/readme_block.sh holds the checks that do fail.
#
#   bash scripts/readme_base_diff.sh BASE_COMMIT >> "$GITHUB_STEP_SUMMARY"
set -uo pipefail

base="${1:?usage: readme_base_diff.sh BASE_COMMIT}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'git -C "$root" worktree remove --force "$tmp/base-src" 2>/dev/null; rm -rf "$tmp"' EXIT

echo "### README block: this checkout against $base"
if ! git -C "$root" worktree add --detach --quiet "$tmp/base-src" "$base" 2>"$tmp/err"; then
    echo "Not compared: $base could not be checked out ($(tr '\n' ' ' <"$tmp/err"))."
    exit 0
fi

python - "$root/README.md" "$tmp/block.sh" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
open(sys.argv[2], "w").write(block)
EOF

run() {  # run NAME SRC: the block in $tmp/NAME through a `stiffcal` importing SRC
    mkdir -p "$tmp/$1/bin"
    printf '#!/bin/sh\nPYTHONPATH="%s" exec python -m stiffcal.cli "$@"\n' "$2" \
        >"$tmp/$1/bin/stiffcal"
    chmod +x "$tmp/$1/bin/stiffcal"
    cp -r "$root/configs" "$root/data" "$tmp/$1"
    (cd "$tmp/$1" && PATH="$tmp/$1/bin:$PATH" PYTHONHASHSEED=0 bash -e "$tmp/block.sh") \
        >"$tmp/$1.log" 2>&1
}

for side in head base; do
    src="$root/src"
    [ "$side" = base ] && src="$tmp/base-src/src"
    if ! run "$side" "$src"; then
        echo "Not compared: the block failed with the $side's src/. Its last lines:"
        echo '```'
        tail -n 5 "$tmp/$side.log"
        echo '```'
        exit 0
    fi
done

changed="$(cd "$tmp" && diff -rq -x manifest.json head/out base/out)"
if [ -z "$changed" ]; then
    echo "Every output file is byte-identical, manifest.json aside."
else
    echo "Output files that differ, manifest.json aside:"
    echo '```'
    echo "$changed"
    echo '```'
fi
if cmp -s "$tmp/base.log" "$tmp/head.log"; then
    echo "The block printed identical lines."
else
    echo "The block printed different lines (diff from the base's to this checkout's):"
    echo '```'
    diff "$tmp/base.log" "$tmp/head.log"
    echo '```'
fi
exit 0
