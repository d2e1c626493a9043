#!/usr/bin/env bash
# Production-line count of the workspace crates, per crate and in total,
# or of the named files and their sum.
#
# Rule: in every `crates/*/src/**/*.rs` file, count the lines before
# the first line that is exactly `#[cfg(test)]`, skipping blank lines
# and lines whose first non-blank characters are `//` (comments and doc
# comments). Run from anywhere inside the repository:
#
#     scripts/prod_lines.sh             # per crate, then the total
#     scripts/prod_lines.sh FILE...     # per file, then their sum
set -euo pipefail
rule='
    FNR == 1 { in_test = 0 }
    $0 == "#[cfg(test)]" { in_test = 1 }
    in_test || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }'
total=0
if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        n=$(awk "$rule" "$file")
        printf '%-40s %6d\n' "$file" "$n"
        total=$((total + n))
    done
    printf '%-40s %6d\n' total "$total"
    exit 0
fi
cd "$(dirname "$0")/.."
for crate in crates/*/; do
    name=$(basename "$crate")
    n=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 -r awk "$rule" |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
