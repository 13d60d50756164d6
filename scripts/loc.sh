#!/bin/sh
# Non-test source lines: for every .rs file under crates/*/src and src/
# (crates/compat excluded), the lines before its first `#[cfg(test)]`
# (the whole file when it has none), summed. Run from anywhere in the repo.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' -not -path 'crates/compat/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { total++ }
        END { print total + 0 }
    ' |
    awk '{ sum += $1 } END { print sum + 0 }'
