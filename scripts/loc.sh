#!/usr/bin/env bash
# Line count of the Rust under a directory: every .rs file whole, and with
# each file cut at its first column-0 `#[cfg(test)]` (the unit-test tail).
# The number a simplicity change is held to; informational, gates nothing.
#
#   scripts/loc.sh [dir]     one directory; with none, `crates`, `shims`
#                            and the two together
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <label> <dir>...
    local label=$1
    shift
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk -v dir="$label" '
        FNR == 1 { tail = 0 }
        /^#\[cfg\(test\)\]$/ { tail = 1 }
        { whole++ }
        !tail { code++ }
        END { printf "%s: %d lines of .rs, %d without #[cfg(test)] tails\n", dir, whole, code }
    '
}

if (($#)); then
    count "$1" "$1"
else
    count crates crates
    count shims shims
    count "crates + shims" crates shims
fi
