#!/usr/bin/env bash
# CLI smoke checks: exit codes and exact output bytes of the pathbij verbs.
# Run from the repository root: bash scripts/smoke.sh (exits nonzero on the first failed check).
set -e

export PYTHONPATH=src
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

python -m pathbij.cli count --class A --size 3000 > /dev/null
# Past Python's default 4300-digit int/str limit: the exact count, with no traceback.
out="$(python -m pathbij.cli count --class A --size 7000 2> "$tmp/count.err")"
test "${#out}" = 4388
if grep -q Traceback "$tmp/count.err"; then exit 1; fi
out="$(python -m pathbij.cli verify --max-size 10 --census)"
test "$(printf '%s\n' "$out" | wc -l)" = 11
test "$(printf '%s\n' "$out" | grep -c ' bijection OK$')" = 11
test "$(python -m pathbij.cli perms --n 9)" = 20626
test "$(python -m pathbij.cli perms --n 8 --patterns 4321)" = 15767
test "$(python -m pathbij.cli perms --n 9 --patterns 123)" = 4862
test "$(python -m pathbij.cli map --path DUUDDDUUUUUDFDD)" = FUDUFDUUFUDDD
test "$(python -m pathbij.cli unmap --path FUDUFDUUFUDDD)" = DUUDDDUUUUUDFDD
test "$(python -m pathbij.cli map --path DUUDDDUUUUUDFDD --trace | tail -1)" = FUDUFDUUFUDDD
test "$(python -m pathbij.cli unmap --path FUDUFDUUFUDDD --trace | tail -1)" = DUUDDDUUUUUDFDD
first="$(python -m pathbij.cli enumerate --class A --size 9 2> "$tmp/enumerate.err" | head -1)"
test "$first" = DDDDDDDDDUUUUUUUUU
if grep -q Traceback "$tmp/enumerate.err"; then exit 1; fi
test "$(python -m pathbij.cli render --path UFD)" = "$(printf ' __\n/  \\')"
python -m pathbij.cli verify --max-size 3 > /dev/null
out="$(python -m pathbij.cli verify --max-size 9)"
test "$(printf '%s\n' "$out" | wc -l)" = 10
test "$(printf '%s\n' "$out" | grep -c ' bijection OK$')" = 10
terms="1 2 6 21 79 309 1237 5026 20626 85242 354080 1476368 6173634"
i=1; for t in $terms; do echo "$i $t"; i=$((i + 1)); done > "$tmp/b_good.txt"
out="$(python -m pathbij.cli oeis --bfile "$tmp/b_good.txt" --class B --max-size 12 --offset 1)"
test "$(printf '%s\n' "$out" | tail -1)" = "MATCH 13/13"
sed 's/^6 309$/6 310/' "$tmp/b_good.txt" > "$tmp/b_bad.txt"
rc=0
out="$(python -m pathbij.cli oeis --bfile "$tmp/b_bad.txt" --class B --max-size 12 --offset 1)" || rc=$?
test "$rc" = 1
test "$(printf '%s\n' "$out" | tail -1)" = "MISMATCH at n=5"
rc=0
err="$(python -m pathbij.cli oeis --bfile "$tmp/b_good.txt" --class B --max-size 13 --offset 1 2>&1 > /dev/null)" || rc=$?
test "$rc" = 2
test "$err" = "error: b_good.txt lacks indices 14..14"
printf '0 1\n1 2_0\n' > "$tmp/b_underscore.txt"
rc=0
err="$(python -m pathbij.cli oeis --bfile "$tmp/b_underscore.txt" --class A 2>&1 > /dev/null)" || rc=$?
test "$rc" = 2
case "$err" in "error: malformed b-file line 2"*) ;; *) exit 1 ;; esac
rc=0
python -m pathbij.cli perms --n 4 --patterns "$(printf '\331\243\331\242\331\244\331\241')" > /dev/null 2>&1 || rc=$?
test "$rc" = 2
for argv in "map --path F" "unmap --path UUDUDD"; do
  rc=0
  err="$(python -m pathbij.cli $argv 2>&1 > /dev/null)" || rc=$?
  test "$rc" = 2
  printf '%s\n' "$err" | grep -q '^error:'
  if printf '%s\n' "$err" | grep -q Traceback; then exit 1; fi
done
# A long generated class-A path: the trace's last line is the image, and unmap undoes it.
long="$(python -c 'import sys; sys.path.insert(0, "bench"); import longpaths; print(*longpaths.generate(7, 1, 50_000, 500))')"
test "${#long}" -ge 50000
image="$(python -m pathbij.cli map --path "$long")"
test "$(python -m pathbij.cli map --path "$long" --trace | tail -1)" = "$image"
test "$(python -m pathbij.cli unmap --path "$image")" = "$long"
# A path of repeated components: its image repeats the components' images, the trace's
# last line is that image, and unmap undoes it.
rep="$(python -c 'print("UUFDD" * 3000 + "DDUU" * 3000 + "UUDUDD" * 1000)')"
image="$(python -m pathbij.cli map --path "$rep")"
parts="$(for c in UUFDD DDUU UUDUDD; do python -m pathbij.cli map --path "$c"; done)"
test "$image" = "$(python -c 'import sys; a, b, c = sys.argv[1:]; print(a * 3000 + b * 3000 + c * 1000)' $parts)"
test "$(python -m pathbij.cli map --path "$rep" --trace | tail -1)" = "$image"
test "$(python -m pathbij.cli unmap --path "$image")" = "$rep"
echo "smoke OK"
