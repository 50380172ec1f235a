#!/usr/bin/env bash
# Runs `cargo test -q "$@"` (a package or target selection ending in a
# test-name filter) and fails when the filter matches no test.  `cargo test`
# exits 0 when a filter matches nothing, so without this check a renamed
# test would leave a CI step that tests nothing and passes.
#
#   .github/scripts/cargo-test-nonempty.sh -p jxta-overlay --lib lock_order
set -euo pipefail
list=$(cargo test -q "$@" -- --list)
matched=$(grep -c ': test$' <<<"$list" || true)
if [ "$matched" -eq 0 ]; then
  echo "::error::no test matches: cargo test $*"
  exit 1
fi
echo "$matched tests match: cargo test $*"
cargo test -q "$@"
