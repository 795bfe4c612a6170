#!/usr/bin/env bash
# checkdocs.sh — keep the documentation from rotting:
#
#   1. gofmt -l over the tracked Go source (fails on any unformatted file);
#   2. go vet ./...;
#   3. every relative markdown link in README.md and docs/ must resolve,
#      every in-page anchor link (](#anchor)) there must name a heading
#      of the same file, and every *.md file a Go comment names must
#      exist;
#   4. every ```go code block in README.md is extracted into its own
#      throwaway main package (with a replace directive pointing at this
#      repository) and compiled, so README examples break CI instead of
#      silently drifting from the API. Blocks that should not compile as
#      programs use ```text instead.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

echo "== gofmt" >&2
UNFORMATTED="$(gofmt -l . 2>/dev/null || true)"
if [ -n "${UNFORMATTED}" ]; then
    echo "gofmt required on:" >&2
    echo "${UNFORMATTED}" >&2
    exit 1
fi

echo "== go vet" >&2
go vet ./...

echo "== markdown links" >&2
FAIL=0
for doc in README.md docs/*.md; do
    [ -f "${doc}" ] || continue
    dir="$(dirname "${doc}")"
    # Relative link targets: ](target) not starting with a scheme or anchor.
    while IFS= read -r target; do
        target="${target%%#*}"
        # Drop an optional link title: [text](target "title").
        target="${target%% *}"
        [ -z "${target}" ] && continue
        if [ ! -e "${dir}/${target}" ] && [ ! -e "${ROOT}/${target}" ]; then
            echo "${doc}: broken link -> ${target}" >&2
            FAIL=1
        fi
    done < <(grep -o '](\([^)]*\))' "${doc}" | sed -e 's/^](//' -e 's/)$//' \
        | grep -v -E '^(https?|mailto):' | grep -v '^#' || true)
done
[ "${FAIL}" -eq 0 ] || exit 1

echo "== in-page anchors" >&2
# Headings outside code fences, slugged the way GitHub does: lowercase,
# keep only letters, digits, space, '-' and '_', then spaces become '-'.
for doc in README.md docs/*.md; do
    [ -f "${doc}" ] || continue
    slugs="$(awk '/^```/ { fence = !fence; next } !fence && /^#+ / { sub(/^#+ +/, ""); print }' "${doc}" \
        | LC_ALL=C tr '[:upper:]' '[:lower:]' | LC_ALL=C sed -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g')"
    while IFS= read -r anchor; do
        if ! grep -qxF -- "${anchor}" <<<"${slugs}"; then
            echo "${doc}: broken anchor -> #${anchor}" >&2
            FAIL=1
        fi
    done < <(grep -o '](#[^)]*)' "${doc}" | sed -e 's/^](#//' -e 's/)$//' | sort -u || true)
done
[ "${FAIL}" -eq 0 ] || exit 1

echo "== markdown files named in Go comments" >&2
# A name resolves against the repository root or the Go file's directory.
while IFS= read -r gofile; do
    dir="$(dirname "${gofile}")"
    while IFS= read -r target; do
        if [ ! -e "${dir}/${target}" ] && [ ! -e "${ROOT}/${target}" ]; then
            echo "${gofile}: comment names missing file ${target}" >&2
            FAIL=1
        fi
    done < <(grep -o '//.*' "${gofile}" | sed -E 's#[a-z]+://[^ ]*##g' \
        | grep -oE '[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b' | sort -u || true)
done < <(git ls-files -- '*.go')
[ "${FAIL}" -eq 0 ] || exit 1

echo "== README Go blocks" >&2
TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT
awk -v dir="${TMP}" '
    /^```go$/ { inblock = 1; n++; next }
    /^```/    { inblock = 0 }
    inblock   { print > (dir "/block" n ".go") }
' README.md

BLOCKS=0
for f in "${TMP}"/block*.go; do
    [ -e "${f}" ] || continue
    BLOCKS=$((BLOCKS + 1))
    d="${f%.go}"
    mkdir "${d}"
    mv "${f}" "${d}/main.go"
    cat > "${d}/go.mod" <<EOF
module readmeblock

go 1.24

require repro v0.0.0

replace repro => ${ROOT}
EOF
    echo "   compiling block ${BLOCKS} (${d##*/})" >&2
    (cd "${d}" && go build ./...)
done
if [ "${BLOCKS}" -eq 0 ]; then
    echo "README.md contains no \`\`\`go blocks — quickstart missing?" >&2
    exit 1
fi

echo "docs check passed (${BLOCKS} README code blocks compiled)" >&2
