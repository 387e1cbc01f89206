#!/usr/bin/env bash
# The two numbers the ROADMAP north-star says should go down.
#
#   scripts/surface.sh
#
# Per crate: Rust lines under src/ up to each file's first #[cfg(test)]
# (what ships, not what tests it) and the `pub` items among them (lines
# opening with `pub fn|struct|enum|trait|const|type|mod|use`). Then the
# totals, and every Rust line in crates/ + tests/ + examples/.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

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
printf '%-12s %8d\n' 'all rust' \
    "$(find crates tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"
