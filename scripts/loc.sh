#!/usr/bin/env bash
# loc.sh — print the repository's size metric: Go lines outside
# benchmark/ (its own module), split into non-test and test files. It
# counts the files git tracks plus new untracked ones it does not
# ignore, as they stand in the working tree:
#
#   scripts/loc.sh
#   non-test 17915
#   test 19062
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
    # Every listed file that still exists; a deletion not yet staged
    # counts as gone.
    grep -v '^benchmark/' | while IFS= read -r f; do
        if [[ -f "$f" ]]; then printf '%s\0' "$f"; fi
    done | xargs -0 -r cat | wc -l
}

files="$(git ls-files --cached --others --exclude-standard -- '*.go' | sort -u)"
echo "non-test $(grep -v '_test\.go$' <<<"$files" | count)"
echo "test $(grep '_test\.go$' <<<"$files" | count)"
