#!/usr/bin/env bash
# Byte-identity check of the CLI and experiment outputs of two source trees.
#
# Usage: tools/compare_outputs.sh OLD_SRC NEW_SRC [WORK_DIR]
#
# Runs one fixed set of `gen`, `cluster`, `outliers`, `mnist-sv` and
# `experiment` commands with the `tsclust` package found in each `src/` tree,
# writing to WORK_DIR/old and WORK_DIR/new (default: a fresh temporary
# directory), and compares the two with `diff -r`.  The IDX commands read a
# small synthetic image/label pair that this script writes to WORK_DIR/idx
# with its own code, not the package's.  Experiment manifests are compared with
# their wall-clock `trial_seconds` removed.  When outputs differ, a summary
# follows the diff: for each differing `*.result.json` whether `labels` and
# `L_hat` are equal, the length of `laplacian_eigenvalues` on both sides and
# the largest absolute difference between the values they share by position,
# for each differing CSV the largest absolute and relative
# difference between its numeric cells, for each differing `*.trials.csv` how
# many trials changed `ce`, `el` or `outlier_err` by more than 1e-12, and for
# each differing `*.outliers.csv` whether its `is_outlier` column is equal.  Exits 0 when
# every output is byte-identical, 1 when some differ.  Takes a few minutes on
# one core.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 OLD_SRC NEW_SRC [WORK_DIR]" >&2
  exit 2
fi
old_src=$(cd "$1" && pwd)
new_src=$(cd "$2" && pwd)
work=${3:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

# One BLAS thread, as in the benchmark, so both trees see the same sums.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
unset TSC_SEED

# 30 low-rank 28 x 28 images of each of the digits 2, 4 and 8, shuffled.
mkdir -p "$work/idx"
python3 - "$work/idx" <<'PY'
import struct, sys
import numpy as np

rng = np.random.default_rng(5)
digits = (2, 4, 8)
blocks = [rng.uniform(0, 1, (784, 4)) @ rng.uniform(0, 1, (4, 30)) for _ in digits]
pixels = np.hstack([np.round(b / b.max() * 255) for b in blocks]).T.astype(np.uint8)
labels = np.repeat(np.array(digits, np.uint8), 30)
order = rng.permutation(labels.size)
with open(f"{sys.argv[1]}/images.idx", "wb") as fh:
    fh.write(struct.pack(">IIII", 0x803, labels.size, 28, 28) + pixels[order].tobytes())
with open(f"{sys.argv[1]}/labels.idx", "wb") as fh:
    fh.write(struct.pack(">II", 0x801, labels.size) + labels[order].tobytes())
PY

run_all() {
  local src=$1 out=$2
  rm -rf "$out"
  mkdir -p "$out"
  cd "$out"
  tsc() { PYTHONPATH="$src" python3 -m tsclust "$@" > /dev/null; }

  tsc gen --out plain --m 30 --d 5 --L 3 --n 40 --seed 12
  tsc gen --out pair --m 20 --d 6 --t 2 --n 50 --seed 3
  tsc gen --out shared --m 30 --d 6 --L 3 --n 40 --shared --sigma2 0.1 --s 2 --seed 4
  tsc gen --out gauss --m 40 --d 4 --L 3 --n 30 --outliers 40 --outlier-mode gaussian \
    --sigma2 0.2 --seed 5
  # 600 points whose q=6 graph is one component, past the size from which
  # the eigensolver takes the Lanczos path.
  tsc gen --out big --m 60 --d 6 --L 4 --n 150 --shared --seed 7
  # Two components of 600 points, each past the crossover for its share of
  # the window, so both take the Lanczos path with a per-component budget.
  tsc gen --out multi --m 60 --d 4 --L 2 --n 600 --seed 8

  local variant input
  for variant in exp ls; do
    for input in plain shared; do
      tsc cluster "$input.csv" --q 6 --variant "$variant" --out-edges "$input-$variant.edges.csv" \
        --out-labels "$input-$variant.labels.csv" --out-json "$input-$variant.result.json"
      tsc cluster "$input.csv" --q 6 --variant "$variant" --no-normalize \
        --out-edges "$input-$variant-raw.edges.csv" \
        --out-labels "$input-$variant-raw.labels.csv" --out-json "$input-$variant-raw.result.json"
    done
    tsc cluster pair.csv --q 5 --variant "$variant" --L 2 --out-edges "pair-$variant.edges.csv" \
      --out-labels "pair-$variant.labels.csv" --out-json "pair-$variant.result.json"
    tsc cluster big.csv --q 6 --variant "$variant" --out-labels "big-$variant.labels.csv" \
      --out-json "big-$variant.result.json"
    tsc cluster multi.csv --q 6 --variant "$variant" --out-labels "multi-$variant.labels.csv" \
      --out-json "multi-$variant.result.json"
  done

  tsc outliers plain.csv --out plain.outliers.csv
  tsc outliers gauss.csv --c noisy --out gauss.outliers.csv
  # 1200 points: five strips of the outlier screen on one CPU, ten on two,
  # and many groups.
  tsc outliers multi.csv --out multi.outliers.csv
  # Its first 300 points again at the end: each copy ties with its original
  # in another strip, so the screen's fold across strips picks the group.
  { cat multi.csv; sed -n '2,301p' multi.csv; } > copies.csv
  tsc outliers copies.csv --out copies.outliers.csv

  local idx=(--images ../idx/images.idx --labels ../idx/labels.idx)
  tsc mnist-sv "${idx[@]}" --out mnist-sv.csv
  tsc mnist-sv "${idx[@]}" --digits 2,8 --center --remove-top-k 1 --out mnist-sv-centered.csv

  local spec name
  for spec in \
    'grid-exp {"scenario": "grid", "trials": 2, "seed": 1}' \
    'grid-ls {"scenario": "grid", "trials": 2, "seed": 1, "variant": "ls"}' \
    'intersect {"scenario": "intersect", "trials": 2, "seed": 2}' \
    'intersect-ls {"scenario": "intersect", "trials": 1, "seed": 2, "variant": "ls"}' \
    'noise-grid {"scenario": "noise-grid", "trials": 2, "seed": 3}' \
    'noise-grid-int {"scenario": "noise-grid", "trials": 1, "seed": 8, "sigma2_values": [0, 0.2], "n_values": [40]}' \
    'huge-noise {"scenario": "huge-noise", "trials": 2, "seed": 4}' \
    'outliers {"scenario": "outliers", "trials": 2, "seed": 5}' \
    'outliers-noisy {"scenario": "outliers", "trials": 2, "seed": 6, "sigma2": 0.1}' \
    'mnist {"scenario": "mnist", "images": "../idx/images.idx", "labels": "../idx/labels.idx", "n_values": [10, 20], "trials": 2, "seed": 7}'; do
    name=${spec%% *}
    echo "${spec#* }" > "$name.spec.json"
    tsc experiment "$name.spec.json" --out "$name.csv" --per-trial "$name.trials.csv"
    python3 - "$name.csv.manifest.json" <<'PY'
import json, sys
path = sys.argv[1]
with open(path) as fh:
    manifest = json.load(fh)
for cell in manifest["cells"]:
    del cell["trial_seconds"]
with open(path, "w") as fh:
    json.dump(manifest, fh, indent=2, sort_keys=True)
    fh.write("\n")
PY
  done
  cd - > /dev/null
}

run_all "$old_src" "$work/old"
run_all "$new_src" "$work/new"
count=$(find "$work/new" -type f | wc -l)
if diff -r "$work/old" "$work/new"; then
  echo "all $count outputs byte-identical ($work)"
else
  python3 - "$work/old" "$work/new" <<'PY' || true
import csv, json, sys
from pathlib import Path

old_dir, new_dir = Path(sys.argv[1]), Path(sys.argv[2])


def cells(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def moved(x, y):
    """Whether two cells differ by more than 1e-12 (an empty one by any)."""
    try:
        return not abs(float(x) - float(y)) <= 1e-12
    except ValueError:
        return x != y


for new in sorted(p for p in new_dir.rglob("*") if p.is_file()):
    name = new.relative_to(new_dir)
    old = old_dir / name
    if not old.is_file() or old.read_bytes() == new.read_bytes():
        continue
    if new.name.endswith(".result.json"):
        a, b = (json.loads(p.read_text()) for p in (old, new))
        same = {key: "equal" if a.get(key) == b.get(key) else "DIFFER" for key in ("labels", "L_hat")}
        x, y = (doc.get("laplacian_eigenvalues", []) for doc in (a, b))
        largest = max((abs(u - v) for u, v in zip(x, y)), default=0.0)
        print(
            f"{name}: labels {same['labels']}, L_hat {same['L_hat']}, "
            f"laplacian_eigenvalues {len(x)} -> {len(y)} values, largest absolute "
            f"difference {largest:.3g} over the first {min(len(x), len(y))}"
        )
    elif new.suffix == ".csv":
        a, b = cells(old), cells(new)
        if [len(row) for row in a] != [len(row) for row in b]:
            print(f"{name}: rows or columns differ")
            continue
        largest, relative, text = 0.0, 0.0, 0
        for x, y in zip((c for row in a for c in row), (c for row in b for c in row)):
            if x == y:
                continue
            try:
                change = abs(float(x) - float(y))
            except ValueError:
                text += 1
                continue
            if not change <= largest:  # a NaN is kept
                largest = change
            scale = max(abs(float(x)), abs(float(y)))
            if scale > 0.0 and not change / scale <= relative:
                relative = change / scale
        note = f", {text} non-numeric cells differ" if text else ""
        if new.name.endswith(".trials.csv"):
            columns = [a[0].index(key) for key in ("ce", "el", "outlier_err")]
            trials = sum(any(moved(x[c], y[c]) for c in columns) for x, y in zip(a[1:], b[1:]))
            note += f", {trials} of {len(a) - 1} trials moved ce, el or outlier_err by > 1e-12"
        if new.name.endswith(".outliers.csv"):
            column = a[0].index("is_outlier")
            same = [row[column] for row in a] == [row[column] for row in b]
            note += f", is_outlier {'equal' if same else 'DIFFER'}"
        print(f"{name}: largest absolute difference {largest:.3g} (relative {relative:.3g}){note}")
PY
  echo "outputs differ ($work)" >&2
  exit 1
fi
