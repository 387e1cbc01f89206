#!/usr/bin/env bash
# The two numbers the ROADMAP north-star says should go down.
#
#   scripts/surface.sh [--max-pub N]
#
# Per crate: Rust lines under src/ up to each file's first #[cfg(test)]
# (what ships, not what tests it) and the `pub` items among them (lines
# opening with `pub fn|struct|enum|trait|const|type|mod|use`). Then the
# totals, and every Rust line in crates/ + tests/ + examples/.
#
# With --max-pub N it exits 1 when the total of `pub` items is above N:
# CI's ratchet, so a change that adds public items raises N in its diff.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

max_pub=
case "${1-}" in
    --max-pub) max_pub=${2:?--max-pub needs a number} ;;
    '') ;;
    *) echo "usage: scripts/surface.sh [--max-pub N]" >&2; exit 2 ;;
esac

table=$(
    printf '%-12s %8s %6s\n' crate lines pub
    for crate in crates/*/; do
        find "$crate/src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$crate")" '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests {
                lines++
                if ($0 ~ /^[ \t]*pub (fn|struct|enum|trait|const|type|mod|use)/) items++
            }
            END { printf "%-12s %8d %6d\n", crate, lines, items }'
    done | awk '
        { print; lines += $2; items += $3 }
        END { printf "%-12s %8d %6d\n", "total", lines, items }'
)
echo "$table"
printf '%-12s %8d\n' 'all rust' \
    "$(find crates tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"

if [ -n "$max_pub" ]; then
    total=$(echo "$table" | awk '$1 == "total" { print $3 }')
    if [ "$total" -gt "$max_pub" ]; then
        echo "surface: $total pub items, over the --max-pub $max_pub ratchet" >&2
        exit 1
    fi
fi
