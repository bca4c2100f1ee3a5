#!/usr/bin/env bash
# Prints `src_lines`, the non-test line count of the workspace crates (the
# rule in docs/PERFORMANCE.md): over every `.rs` file under `crates/*/src`,
# the lines above the file's first line-initial `#[cfg(test)]`, or all of
# its lines if it has none.
#
# With <ref>, counts the files committed at <ref>; without, the working
# tree. Exits 2 if <ref> does not name a commit.
#
# Usage:
#   scripts/src-lines.sh [ref]
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of stdin above the first line-initial `#[cfg(test)]`. It reads to
# the end: leaving early would break `git show`'s pipe under pipefail.
above_tests() {
    awk '/^#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }'
}

total=0
if [ $# -eq 0 ]; then
    while IFS= read -r file; do
        total=$((total + $(above_tests < "$file")))
    done < <(find crates/*/src -name '*.rs' | sort)
else
    if ! rev=$(git rev-parse --verify --quiet "$1^{commit}"); then
        echo "unknown ref: $1" >&2
        exit 2
    fi
    while IFS= read -r file; do
        total=$((total + $(git show "$rev:$file" | above_tests)))
    done < <(git ls-tree -r --name-only "$rev" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$')
fi
echo "$total"
