#!/usr/bin/env bash
# Lines of code per workspace crate, as CHANGES.md records them: `lines` are
# the non-test lines of `src/` (each file up to its first top-level
# `#[cfg(test)]`), `code` the ones among them that are neither blank nor a
# `//` comment. Tests under `tests/` and `benches/` are not counted.
#
#   scripts/loc.sh                 every crate under crates/, and a total
#   scripts/loc.sh crates/core ... only the crates named
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- crates/*/
fi
printf '%-12s %7s %7s\n' crate lines code
for dir in "$@"; do
    dir=${dir%/}
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v name="${dir##*/}" '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live { lines++; if ($0 !~ /^[[:space:]]*(\/\/|$)/) code++ }
        END { printf "%-12s %7d %7d\n", name, lines, code }'
done | awk '{ print; lines += $2; code += $3 } END { printf "%-12s %7d %7d\n", "total", lines, code }'
