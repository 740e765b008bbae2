#!/usr/bin/env bash
# Run the README's command-line block twice, each in a fresh directory with
# the repository's configs/ and data/, under PYTHONHASHSEED 0 and then 1,
# through the `stiffcal` command on PATH.  The run fails on
#   - a failing command, or a numpy overflow or invalid-value warning;
#   - an empty or missing output among the five checked below;
#   - an unconverged prediction (predict itself exits 2 on one; this
#     check stays as a second guard);
#   - a design whose rho0 is not finite and positive;
#   - a manifest.json whose outputs are not exactly the other files in its
#     directory;
#   - any byte that differs between the two runs, manifest.json aside
#     (manifests hold absolute paths).
#
#   bash scripts/readme_block.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

python - "$root/README.md" "$tmp/block.sh" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
open(sys.argv[2], "w").write(block)
EOF

for hash_seed in 0 1; do
    work="$tmp/run$hash_seed"
    mkdir "$work"
    cp -r "$root/configs" "$root/data" "$work"
    (cd "$work" && PYTHONHASHSEED=$hash_seed PYTHONWARNINGS=error::RuntimeWarning \
        bash -ex "$tmp/block.sh")
    for f in fit/elasto.json pred/prediction.json eta/eta.csv plan/doe.json plan/plan.csv; do
        test -s "$work/out/$f" || { echo "out/$f is missing or empty" >&2; exit 1; }
    done
    python - "$work/out" <<'EOF'
import glob, json, math, os, sys
out = sys.argv[1]
for man in sorted(glob.glob(f"{out}/*/manifest.json")):
    listed = sorted(json.load(open(man))["outputs"])
    written = sorted(n for n in os.listdir(os.path.dirname(man)) if n != "manifest.json")
    if listed != written:
        sys.exit(f"{man} lists {listed}, but its directory holds {written}")
if json.load(open(f"{out}/pred/prediction.json"))["converged"] is not True:
    sys.exit("the prediction did not converge")
rho0 = json.load(open(f"{out}/plan/doe.json"))["rho0_mm"]
if not (math.isfinite(rho0) and rho0 > 0):
    sys.exit(f"the design's rho0 is {rho0}, not finite and positive")
EOF
done
diff -r -x manifest.json "$tmp/run0" "$tmp/run1"
echo "README block: both runs passed and wrote the same bytes"
