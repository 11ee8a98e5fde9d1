#!/usr/bin/env bash
# loc.sh — non-test Go lines per package and in total.
#
#   ./scripts/loc.sh                    # every package of the root module
#   ./scripts/loc.sh ./internal/server  # selected packages
#
# Counts the physical lines (comments and blank lines included) of each
# package's non-test .go files, as the go tool selects them for the host
# platform. perfbench/ is a module of its own and is not counted. ROADMAP
# item 3 asks every refactor to record the change in the total in
# CHANGES.md; CI prints it for information and never fails on it.
set -euo pipefail
cd "$(dirname "$0")/.."
go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' "${@:-./...}" |
	while read -r pkg files; do
		n=0
		if [[ -n "$files" ]]; then
			# shellcheck disable=SC2086 # the file list is space-separated on purpose
			n=$(cat $files | wc -l)
		fi
		printf '%7d  %s\n' "$n" "$pkg"
	done |
	awk '{ print; total += $1 } END { printf "%7d  total\n", total }'
