#!/usr/bin/env bash
# Line count of the Rust under crates/: every .rs file whole, and with each
# file cut at its first column-0 `#[cfg(test)]` (the unit-test tail). The
# number a simplicity change is held to; informational, gates nothing.
#
#   scripts/loc.sh [dir]     default dir: crates
set -euo pipefail
cd "$(dirname "$0")/.."

find "${1:-crates}" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { tail = 0 }
    /^#\[cfg\(test\)\]$/ { tail = 1 }
    { whole++ }
    !tail { code++ }
    END { printf "%s: %d lines of .rs, %d without #[cfg(test)] tails\n", dir, whole, code }
' dir="${1:-crates}"
