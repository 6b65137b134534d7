#!/usr/bin/env bash
# Run every script, each dquant command and the README's Python example once,
# writing into OUT_DIR. Fails on the first command that fails or warns of a
# truncation-unsafe evolution.
# Usage: bash .github/smoke.sh OUT_DIR  (from the repository root)
set -euo pipefail
out=${1:?usage: smoke.sh OUT_DIR}
mkdir -p "$out"

python scripts/run_maxwell_audit.py
python scripts/run_scheme_comparison.py
python scripts/run_phasematch_scan.py --out "$out/scan.csv"
awk '/^```python$/{f=1;next} /^```$/{f=0} f' README.md > "$out/readme_example.py"
python "$out/readme_example.py"

run() {
  dquant "$@" 2> "$out/stderr.txt" || { cat "$out/stderr.txt"; exit 1; }
  cat "$out/stderr.txt"
  if grep -q truncation-unsafe "$out/stderr.txt"; then exit 1; fi
}
# the top-level help lists the commands; each command's help builds its parser alone
run --help
for command in invert verify compare phasematch spdc convert; do
  run "$command" --help
done
echo '{"units": "natural", "dim": 1, "chi": {"1": [0.5], "2": [0.3]}}' > "$out/chi2.json"
run invert --medium "$out/chi2.json" --out "$out/invert"
run verify --medium "$out/chi2.json" --modes 2 --out "$out/verify"
echo '{"units": "natural", "dim": 1, "chi": {"1": [0.6], "2": [0.2], "3": [-0.15]}}' > "$out/chi3.json"
run verify --medium "$out/chi3.json" --modes 2 --out "$out/verify-chi3"
run verify --medium "$out/chi3.json" --modes 5 --out "$out/verify-chi3-m5"
run verify --medium "$out/chi3.json" --modes 8 --out "$out/verify-chi3-m8"  # the largest Wick build
run compare --out "$out/compare"
run compare --order 10 --out "$out/compare-10"  # above every bench order; exits 1 unless -10
run compare --observable squeezing --out "$out/compare-squeezing"
run compare --observable conversion --out "$out/compare-conversion"
run phasematch --out "$out/phasematch"
run spdc --out "$out/spdc"
run spdc --n-max 127 --time 0.5 --out "$out/spdc-127"  # an even chain: no zero mode
run spdc --pump quantum --out "$out/spdc-quantum"
run spdc --pump quantum --n-max 48 --time 0.2 --out "$out/spdc-quantum-48"
run convert --out "$out/convert"
# theta and the route ratio built in SI, where theta is ~1e-35 J
echo '{"units": "si", "dim": 1, "chi": {"1": [0.5], "2": [0.3]}}' > "$out/chi2-si.json"
run spdc --medium "$out/chi2-si.json" --length 1.7 --out "$out/spdc-si"
run convert --medium "$out/chi2-si.json" --length 1.7 --out "$out/convert-si"

# bad input exits 2 with an error line, not 1 with a traceback: a directory
# is no medium, 1 + chi1 = 0 has no refractive index, the box modes of
# verify and spdc need an index of at least 1, a compare order whose
# divisor ladder exceeds 2^17 entries, a --time whose sinh^2 fit overflows or
# underflows or whose phase w t reaches 2^53, a coupling rate at or below
# PRUNE_TOL or built coefficients that underflow to 0, a medium whose
# operator checks overflow, verify's fields or nonlinear order that
# prune to zero, a medium that is not scalar (dim = 3), a chi entry that is a
# string and a three-wave coupling that overflows a float write no file
expect_input_error() {
  status=0
  dquant "$@" 2> "$out/stderr.txt" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q '^error:' "$out/stderr.txt"; then
    cat "$out/stderr.txt"
    exit 1
  fi
}
# expect_nothing_written NAME ARGS...: an input error that leaves no --out directory NAME
expect_nothing_written() {
  dir="$out/$1"
  shift
  expect_input_error "$@" --out "$dir"
  if [ -e "$dir" ]; then
    echo "dquant $* wrote $dir"
    exit 1
  fi
}
expect_input_error invert --medium "$out"
echo '{"units": "natural", "dim": 1, "chi": {"1": [-1.0], "2": [0.3]}}' > "$out/chi1-minus-one.json"
expect_nothing_written spdc-chi1-minus-one spdc --medium "$out/chi1-minus-one.json"
echo '{"units": "natural", "dim": 1, "chi": {"1": [-0.5], "2": [0.3]}}' > "$out/chi1-minus-half.json"
expect_nothing_written verify-chi1-minus-half verify --medium "$out/chi1-minus-half.json"
expect_nothing_written spdc-chi1-minus-half spdc --medium "$out/chi1-minus-half.json"
expect_nothing_written compare-order-30 compare --order 30
expect_nothing_written spdc-time-1e300 spdc --time 1e300
expect_nothing_written convert-time-1e300 convert --time 1e300
expect_nothing_written spdc-time-1e-300 spdc --time 1e-300
expect_nothing_written spdc-pump-1e-16 spdc --pump 1e-16
echo '{"units": "natural", "dim": 1, "chi": {"1": [0.5], "2": [1e200]}}' > "$out/chi2-1e200.json"
expect_nothing_written verify-chi2-1e200 verify --medium "$out/chi2-1e200.json"
echo '{"units": "natural", "dim": 1, "chi": {"1": [0.5], "2": [1e-300]}}' > "$out/chi2-1e-300.json"
expect_nothing_written spdc-length-1e-30 spdc --medium "$out/chi2-1e-300.json" --length 1e-30
expect_nothing_written verify-chi2-1e-300 verify --medium "$out/chi2-1e-300.json"
echo '{"units": "natural", "dim": 1, "chi": {"1": [1e300], "2": [0.3]}}' > "$out/chi1-1e300.json"
expect_nothing_written verify-chi1-1e300 verify --medium "$out/chi1-1e300.json"
echo '{"units": "natural", "dim": 3, "chi": {"1": [0.5, 0, 0, 0, 0.6, 0, 0, 0, 0.7]}}' > "$out/dim3.json"
expect_nothing_written invert-dim3 invert --medium "$out/dim3.json"
echo '{"units": "natural", "dim": 1, "chi": {"1": "0.5", "2": [0.3]}}' > "$out/chi-string.json"
expect_nothing_written invert-chi-string invert --medium "$out/chi-string.json"
echo '{"units": "natural", "dim": 1, "chi": {"1": [0.5], "2": [1e300]}}' > "$out/chi2-1e300.json"
expect_nothing_written spdc-theta-overflow spdc --medium "$out/chi2-1e300.json" --length 1e300
expect_nothing_written convert-theta-overflow convert --medium "$out/chi2-1e300.json" --length 1e300
