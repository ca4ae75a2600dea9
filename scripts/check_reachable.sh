#!/usr/bin/env bash
# Link-map dead-code gate for internal/. Builds every main package of the
# module (cmd/*, examples/*) and perfbench (from its own directory, it is
# a separate module) with inlining off, so every call keeps its callee as
# a linked symbol, and reads the linked function names with `go tool nm`.
# It then lists every function and method the internal/ packages define
# (from their compiled archives, read the same way) and fails on each one
# that no binary links and scripts/reachable_allow.txt does not cover.
#
# Both sides are normalised to one spelling before they are compared:
#   - generic instantiations lose their bracketed shape arguments
#     (`obs.(*Ring[go.shape.struct {…}]).Append` -> `obs.Ring.Append`);
#   - receivers lose their pointer (`(*T).M` -> `T.M`), which also folds
#     the `(*T).M` wrappers the compiler emits for value methods into the
#     real method;
#   - closures, go/defer wrappers and method values count as their
#     enclosing function (`F.func1.2`, `F.gowrap1`, `T.M-fm` -> `F`, `T.M`);
#   - package initialisers are left out.
#
# Allowlist lines are `PATTERN  reason`, where PATTERN is a normalised
# symbol in which `*` matches any run of characters; blank lines and `#`
# comments are ignored. Every entry needs a reason, and an entry that
# matches no unreached symbol fails the check too, so the list cannot
# outlive the code it excuses.
#
# Usage: scripts/check_reachable.sh
set -euo pipefail
export LC_ALL=C # sort and comm must agree on one collation
cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

flags=(-gcflags=all=-l)

go build "${flags[@]}" -o "$tmp/bin/" $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
(cd perfbench && go build "${flags[@]}" -o "$tmp/bin/perfbench" .)

# normalise reads `go tool nm` output and prints the normalised names of
# the text symbols defined in obm/internal/..., one per line.
normalise() {
	awk '
		$2 != "T" { next }
		{
			name = $0
			sub(/^ *[0-9a-f]+ T /, "", name)
			if (name !~ /^obm\/internal\//) next
			while (name ~ /\[[^][]*\]/) gsub(/\[[^][]*\]/, "", name)
			gsub(/\(\*/, "", name); gsub(/\)/, "", name)
			sub(/-fm$/, "", name)
			sub(/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+|\.(func|gowrap|deferwrap)[0-9]+)*$/, "", name)
			if (name ~ /\.init(\.[0-9]+)?$/ || name ~ /\.glob\.$/) next
			print name
		}'
}

for b in "$tmp"/bin/*; do go tool nm "$b"; done | normalise | sort -u >"$tmp/linked"
for a in $(go list -export "${flags[@]}" -f '{{.Export}}' ./internal/...); do
	go tool nm "$a"
done | normalise | sort -u >"$tmp/defined"
comm -23 "$tmp/defined" "$tmp/linked" >"$tmp/unreached"

awk -v allow="$root/scripts/reachable_allow.txt" '
	function glob2re(p) {
		gsub(/[.()^$+?{}|\/\\]/, "\\\\&", p)
		gsub(/\*/, ".*", p)
		return "^" p "$"
	}
	BEGIN {
		while ((getline line < allow) > 0) {
			ln++
			if (line ~ /^[ \t]*(#|$)/) continue
			n = split(line, f, /[ \t]+/)
			if (n < 2) { printf "check_reachable: %s:%d: entry %s has no reason\n", allow, ln, f[1]; bad = 1; continue }
			np++; pat[np] = f[1]; re[np] = glob2re(f[1]); at[np] = ln
		}
	}
	{
		for (i = 1; i <= np; i++) if ($0 ~ re[i]) { used[i] = 1; next }
		printf "check_reachable: no binary links %s\n", $0; bad = 1
	}
	END {
		for (i = 1; i <= np; i++) if (!used[i]) {
			printf "check_reachable: %s:%d: %s matches no unreached symbol; drop the entry\n", allow, at[i], pat[i]; bad = 1
		}
		exit bad
	}' "$tmp/unreached"

echo "check_reachable: ok ($(wc -l <"$tmp/defined") internal functions, $(wc -l <"$tmp/unreached") unreached and allowlisted)"
