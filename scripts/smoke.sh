#!/usr/bin/env bash
# CLI smoke checks: exit codes and exact output bytes of the pathbij verbs.
# Run from the repository root: bash scripts/smoke.sh (exits nonzero on the first failed check).
set -e

export PYTHONPATH=src
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

test "$(python -m pathbij.cli count --class A --size 3000 | sha256sum)" = "a645449d07fa6937d98050244fb0b50b9e367449042341caadadbd7910ae3f8d  -"
# Past Python's default 4300-digit int/str limit: the exact count, with no traceback.
out="$(python -m pathbij.cli count --class A --size 7000 2> "$tmp/count.err")"
test "${#out}" = 4388
if grep -q Traceback "$tmp/count.err"; then exit 1; fi
# The whole verify output, byte for byte: a reordered or miscounted scan fails here.
i=0; for a in 1 2 6 21 79 309 1237 5026 20626 85242 354080; do
  echo "n=$i: |A|=$a |B|=$a bijection OK"; i=$((i + 1))
done > "$tmp/verify.expected"
python -m pathbij.cli verify --max-size 10 --census > "$tmp/verify.out"
cmp "$tmp/verify.expected" "$tmp/verify.out"
test "$(python -m pathbij.cli perms --n 9)" = 20626
test "$(python -m pathbij.cli perms --n 8 --patterns 4321)" = 15767
test "$(python -m pathbij.cli perms --n 9 --patterns 123)" = 4862
# One length-5 pattern (three entries below the two largest), then mixed lengths.
test "$(python -m pathbij.cli perms --n 9 --patterns 34512)" = 261808
test "$(python -m pathbij.cli perms --n 9 --patterns 132,4231)" = 1025
# One pin per kind of site mask in the walk's tables: pair rows only (A022558,
# Bóna), every site killed through the always-dead mask, and five-entry rows that
# share one table with pair rows.
test "$(python -m pathbij.cli perms --n 9 --patterns 1342)" = 91245
test "$(python -m pathbij.cli perms --n 9 --patterns 21)" = 1
# m = 2 is counted from the root's live sites alone, before any packed pass.
test "$(python -m pathbij.cli perms --n 2 --patterns 21)" = 1
test "$(python -m pathbij.cli perms --n 2 --patterns 12,21)" = 0
test "$(python -m pathbij.cli perms --n 9 --patterns 12345,2143)" = 60470
# Four-entry rows, each built once for its interval of sites: one length-6 pattern
# (A047890), then beside the three-entry rows of a length-5 pattern.
test "$(python -m pathbij.cli perms --n 9 --patterns 654321)" = 344837
test "$(python -m pathbij.cli perms --n 9 --patterns 135264,24153)" = 259401
test "$(python -m pathbij.cli map --path DUUDDDUUUUUDFDD)" = FUDUFDUUFUDDD
test "$(python -m pathbij.cli unmap --path FUDUFDUUFUDDD)" = DUUDDDUUUUUDFDD
test "$(python -m pathbij.cli map --path DUUDDDUUUUUDFDD --trace | tail -1)" = FUDUFDUUFUDDD
test "$(python -m pathbij.cli unmap --path FUDUFDUUFUDDD --trace | tail -1)" = DUUDDDUUUUUDFDD
# The whole trace of the worked example in each direction, byte for byte.
cat > "$tmp/map.trace" <<'EOF'
component 1: DU
input: DU
output: F
component 2: UD
input: UD
strip-ends:
expand-flats:
flip-components:
interchange:
flatten-peaks:
output: UD
component 3: DDUU
input: DDUU
output: UFD
component 4: UUUDFDD
input: UUUDFDD
strip-ends: UUDFD
expand-flats: UUDDUD marks=4
flip-components: DDUUDU v1=2 v2=6
interchange: UUDUDD w=4
flatten-peaks: UFUDD
output: UUFUDDD
FUDUFDUUFUDDD
EOF
python -m pathbij.cli map --path DUUDDDUUUUUDFDD --trace > "$tmp/map.out"
cmp "$tmp/map.trace" "$tmp/map.out"
cat > "$tmp/unmap.trace" <<'EOF'
component 1: F
input: F
output: DU
component 2: UD
input: UD
strip-ends:
unflatten-flats:
reverse-interchange:
recover-marks:
contract-marks:
output: UD
component 3: UFD
input: UFD
output: DDUU
component 4: UUFUDDD
input: UUFUDDD
strip-ends: UFUDD
unflatten-flats: UUDUDD w=4
reverse-interchange: DDUUDU
recover-marks: UUDDUD marks=4
contract-marks: UUDFD
output: UUUDFDD
DUUDDDUUUUUDFDD
EOF
python -m pathbij.cli unmap --path FUDUFDUUFUDDD --trace > "$tmp/unmap.out"
cmp "$tmp/unmap.trace" "$tmp/unmap.out"
# Several flatsteps in one stripped-word component: component 2 of this path flips 6
# components in 2 runs.  Both traces, pinned by digest and line count.
multi=DUUUFUDFFDUFFDDUDDUUUFFUUDDFDD
for pin in "map --path $multi:59d9c7bb1992192d0b4a4424b70780e395110c6fb925d6a4394f74e174866436:31" \
    "unmap --path FUUFFUFDFUDFDDUDFUUUFUDFFDDD:08fd8365a2300f119b2871bf31465e37701f2ea3e5e09c971cb2bd11ad6c080d:31"; do
  IFS=: read -r argv digest lines <<< "$pin"
  python -m pathbij.cli $argv --trace > "$tmp/trace.out"
  test "$(sha256sum < "$tmp/trace.out")" = "$digest  -"
  test "$(wc -l < "$tmp/trace.out")" = "$lines"
done
first="$(python -m pathbij.cli enumerate --class A --size 9 2> "$tmp/enumerate.err" | head -1)"
test "$first" = DDDDDDDDDUUUUUUUUU
if grep -q Traceback "$tmp/enumerate.err"; then exit 1; fi
# Whole enumerate outputs, pinned by digest and line count.
for pin in "A --size 8:f28e5b37de5aa99f46adbbdd43e1690203c6508555d2b41eeaffbc74cfd6dc4b:20626" \
    "B --size 8:44fcdcb74938e04a21342fc5e826bcd3f0686d99b2639ba88cd877903d107d8c:20626" \
    "A --size 7 --flat-line 1:3ad0127a8fffcad82fb6a0c45efc0b8959a203153e4c24aa8c0c7489a7f2d4dc:7514" \
    "A --size 6 --flat-line -1:eed98ac4b53df8d1dfdc6a80e444fcab3d12a2fe241e5591adbd189a693bc06c:1812"; do
  IFS=: read -r argv digest lines <<< "$pin"
  python -m pathbij.cli enumerate --class $argv > "$tmp/enumerate.out"
  test "$(sha256sum < "$tmp/enumerate.out")" = "$digest  -"
  test "$(wc -l < "$tmp/enumerate.out")" = "$lines"
done
# Every help text, byte for byte, at a fixed width.
help="$(for verb in "" enumerate count map unmap verify perms oeis render; do
  COLUMNS=80 python -m pathbij.cli $verb --help
done | sha256sum)"
test "$help" = "1080f5dd19ee7cfb0b5647fa9a0e109b5bf2fa184178dd88bb7f4f0678d31f1e  -"
test "$(python -m pathbij.cli render --path UFD)" = "$(printf ' __\n/  \\')"
python -m pathbij.cli verify --max-size 3 > /dev/null
out="$(python -m pathbij.cli verify --max-size 9)"
test "$(printf '%s\n' "$out" | wc -l)" = 10
test "$(printf '%s\n' "$out" | grep -c ' bijection OK$')" = 10
terms="1 2 6 21 79 309 1237 5026 20626 85242 354080 1476368 6173634"
i=1; for t in $terms; do echo "$i $t"; i=$((i + 1)); done > "$tmp/b_good.txt"
sed 's/^6 309$/6 310/' "$tmp/b_good.txt" > "$tmp/b_bad.txt"
# The good terms with a no-break space and a tab between the fields and CRLF line ends.
i=1; for t in $terms; do printf '%s\302\240\t%s\r\n' "$i" "$t"; i=$((i + 1)); done > "$tmp/b_spaces.txt"
# The whole oeis reports, byte for byte, with their exit codes.
for pin in "good:0:4f80d35b0631f8187caeebee5aac94cc924959b0cd457728046909c651fd0a8a" \
    "bad:1:28b0d9b2d2a8e8f1be27ddbc4f302f6e51d8431ab8a0c1cf20f8944c99bc92ad" \
    "spaces:0:4f80d35b0631f8187caeebee5aac94cc924959b0cd457728046909c651fd0a8a"; do
  IFS=: read -r name code digest <<< "$pin"
  rc=0
  python -m pathbij.cli oeis --bfile "$tmp/b_$name.txt" --class B --max-size 12 --offset 1 \
    > "$tmp/oeis.out" || rc=$?
  test "$rc" = "$code"
  test "$(sha256sum < "$tmp/oeis.out")" = "$digest  -"
done
rc=0
err="$(python -m pathbij.cli oeis --bfile "$tmp/b_good.txt" --class B --max-size 13 --offset 1 2>&1 > /dev/null)" || rc=$?
test "$rc" = 2
test "$err" = "error: b_good.txt lacks indices 14..14"
# A range far past the b-file: the cost follows the file's terms, not the range asked for.
rc=0
err="$(timeout 20 python -m pathbij.cli oeis --bfile "$tmp/b_good.txt" --class B --max-size 1000000000000 --offset 1 2>&1 > /dev/null)" || rc=$?
test "$rc" = 2
test "$err" = "error: b_good.txt lacks indices 14..1000000000001"
printf '0 1\n1 2_0\n' > "$tmp/b_underscore.txt"
rc=0
err="$(python -m pathbij.cli oeis --bfile "$tmp/b_underscore.txt" --class A 2>&1 > /dev/null)" || rc=$?
test "$rc" = 2
case "$err" in "error: malformed b-file line 2"*) ;; *) exit 1 ;; esac
printf '0 1\n1 2 3\n' > "$tmp/b_three.txt"
rc=0
err="$(python -m pathbij.cli oeis --bfile "$tmp/b_three.txt" --class A 2>&1 > /dev/null)" || rc=$?
test "$rc" = 2
test "$err" = "error: malformed b-file line 2: expected 2 fields, got 3"
rc=0
python -m pathbij.cli perms --n 4 --patterns "$(printf '\331\243\331\242\331\244\331\241')" > /dev/null 2>&1 || rc=$?
test "$rc" = 2
# A size that is not an integer is a usage error, with no traceback.
rc=0
python -m pathbij.cli count --class A --size x > /dev/null 2> "$tmp/size.err" || rc=$?
test "$rc" = 2
if grep -q Traceback "$tmp/size.err"; then exit 1; fi
for argv in "map --path F" "unmap --path UUDUDD"; do
  rc=0
  err="$(python -m pathbij.cli $argv 2>&1 > /dev/null)" || rc=$?
  test "$rc" = 2
  printf '%s\n' "$err" | grep -q '^error:'
  if printf '%s\n' "$err" | grep -q Traceback; then exit 1; fi
done
# The one domain error: a word outside the map's class exits 2, traced or not, with the
# NotInClass line on stderr and nothing on stdout.
for pin in "map --path UFFD:input is not a grand Schroeder path with all flatsteps on y=2" \
    "unmap --path DU:input is not a Schroeder path with at most one peak per component"; do
  IFS=: read -r argv message <<< "$pin"
  for trace in "" --trace; do
    rc=0
    python -m pathbij.cli $argv $trace > "$tmp/domain.out" 2> "$tmp/domain.err" || rc=$?
    test "$rc" = 2
    printf 'error: %s\n' "$message" | cmp - "$tmp/domain.err"
    test ! -s "$tmp/domain.out"
  done
done
# A long generated class-A path: the trace's last line is the image, and unmap undoes it.
long="$(python -c 'import sys; sys.path.insert(0, "bench"); import longpaths; print(*longpaths.generate(7, 1, 50_000, 500))')"
test "${#long}" -ge 50000
image="$(python -m pathbij.cli map --path "$long")"
python -m pathbij.cli map --path "$long" --trace > "$tmp/long.trace"
test "$(tail -1 "$tmp/long.trace")" = "$image"
test "$(python -m pathbij.cli unmap --path "$image")" = "$long"
# Both whole traces of that path, pinned by digest and line count.
python -m pathbij.cli unmap --path "$image" --trace > "$tmp/long.untrace"
for pin in "long.trace:700c4ef8fc64b2d71d637d3c3b19e8d8f7a250417e054240c209cfb2918dd121:2751" \
    "long.untrace:f23eccd12025ea119f6510c60bb28e9ce14a7140300a356b649779e8d126dfcc:2751"; do
  IFS=: read -r name digest lines <<< "$pin"
  test "$(sha256sum < "$tmp/$name")" = "$digest  -"
  test "$(wc -l < "$tmp/$name")" = "$lines"
done
# A path of repeated components: its image repeats the components' images, the trace's
# last line is that image, and unmap undoes it.
rep="$(python -c 'print("UUFDD" * 3000 + "DDUU" * 3000 + "UUDUDD" * 1000)')"
image="$(python -m pathbij.cli map --path "$rep")"
parts="$(for c in UUFDD DDUU UUDUDD; do python -m pathbij.cli map --path "$c"; done)"
test "$image" = "$(python -c 'import sys; a, b, c = sys.argv[1:]; print(a * 3000 + b * 3000 + c * 1000)' $parts)"
test "$(python -m pathbij.cli map --path "$rep" --trace | tail -1)" = "$image"
test "$(python -m pathbij.cli unmap --path "$image")" = "$rep"
echo "smoke OK"
