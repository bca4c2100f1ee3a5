# Sourced by the scripts that build a second commit beside the working tree
# (bench-pairs.sh, report-diff.sh); not run on its own.
#
# checkout_worktree <ref> <dir>
#   Checks <ref> out, detached, as a git worktree at <dir>, replacing
#   whatever an earlier run left there, and removes it again when the calling
#   script exits. Sets `rev` to the commit checked out. Exits 2 if <ref> does
#   not name a commit.
checkout_worktree() {
    local ref=$1 dir=$2
    if ! rev=$(git rev-parse --verify --quiet "$ref^{commit}"); then
        echo "unknown ref: $ref" >&2
        exit 2
    fi
    mkdir -p "$(dirname "$dir")"
    git worktree remove --force "$dir" 2>/dev/null || rm -rf "$dir"
    git worktree prune
    git worktree add --quiet --detach "$dir" "$rev"
    # shellcheck disable=SC2064 # $dir is expanded now, on purpose.
    trap "git worktree remove --force '$dir'; git worktree prune" EXIT
}
