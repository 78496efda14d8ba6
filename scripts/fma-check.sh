#!/usr/bin/env bash
# Fused multiply-add check: the Go spec lets the compiler fuse x*y + z
# into one instruction that rounds once, and it does so on arm64,
# ppc64le and s390x (never on amd64). A fused reference checksum, arrival
# gap or placement price can differ in its last bit from the amd64 one,
# so the same run would print other numbers on another host. An explicit
# float64(x*y) forces the product to round and cannot fuse.
#
#   scripts/fma-check.sh                  # arm64, ppc64le and s390x
#   scripts/fma-check.sh arm64            # only the named architectures
#
# For each architecture it cross-builds cmd/herabench, disassembles every
# herajvm/ symbol with go tool objdump and lists each fused instruction
# with its symbol and source line. It exits 1 if it finds any.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Fused mnemonics as go tool objdump prints them: FMADDD/FNMSUBS (arm64),
# FMADD/FMSUBS (ppc64le), WFMADB/WFNMSDB and VFMA/VFMS (s390x). FMAXD,
# VFMAX and VGFMA (a carry-less multiply) do not match.
fused='^(FN?M(ADD|SUB)[DS]?|W?FN?M[AS][DS]B|VFN?M[AS]([DS]B)?)$'

archs=("$@")
[ ${#archs[@]} -gt 0 ] || archs=(arm64 ppc64le s390x)
status=0
for arch in "${archs[@]}"; do
	GOARCH=$arch go build -o "$tmp/herabench.$arch" ./cmd/herabench
	# A TEXT line opens a symbol; an instruction line is
	# "file:line  address  encoding  MNEMONIC operands".
	found=$(go tool objdump -s '^herajvm/' "$tmp/herabench.$arch" |
		awk -v re="$fused" '/^TEXT / { sym = $2; next } $4 ~ re { print "  " sym " " $1 " " $4 }')
	if [ -n "$found" ]; then
		echo "fma-check $arch: fused multiply-add in herajvm/ code:"
		echo "$found"
		status=1
	else
		echo "fma-check $arch: ok"
	fi
done
exit $status
