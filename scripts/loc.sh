#!/usr/bin/env bash
# Non-test lines per crate: every `*.rs` file under each `crates/*/src`,
# counted up to its first column-0 `#[cfg(test)]` (a file without one
# counts whole). Blank and comment lines count; unit tests at a file's
# end do not. These are the line budgets ROADMAP.md and CHANGES.md quote.
#
# Usage: scripts/loc.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    lines=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }')
    printf '%-20s %6d\n' "$dir" "$lines"
    total=$((total + lines))
done
printf '%-20s %6d\n' total "$total"
