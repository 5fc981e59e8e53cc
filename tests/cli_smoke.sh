#!/usr/bin/env bash
# CLI smoke: runs every pnr subcommand on a tiny generated drift scenario
# (tune on a tiny kdd_sim race with a grid file), so a handler that reads a
# flag its subcommand does not declare in src/cli/flags.cc aborts here. Also
# checks that a bad command line exits 2 before doing any work. Registered
# with ctest as cli_smoke; needs only bash, grep and cmp.
#
# Usage: tests/cli_smoke.sh <path-to-pnr>

set -euo pipefail
pnr="$1"
workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT
cd "$workdir"

echo "== stream --generate =="
"$pnr" stream --generate --out-dir d --train 2000 --pre 1200 --post 1000 \
       --seed 427 > generate.log
grep -q "1200 pre-drift + 1000 shifted" generate.log

echo "== train, shard, paged train =="
"$pnr" train --data d/train.csv --target r2l --model m.txt --threads 2 \
       > train.log
[ -f m.txt.schema ] || { echo "no schema sidecar" >&2; exit 1; }
"$pnr" shard --data d/train.csv --out t.pns --shards 3 > shard.log
grep -q "in 3 shard(s)" shard.log
"$pnr" train --data t.pns --target r2l --model mp.txt --max-resident-mb 1 \
       > train_paged.log
cmp m.txt mp.txt

echo "== train --multiclass, eval, predict =="
"$pnr" train --data d/train.csv --multiclass --model mc.txt \
       --train-threads 2 > train_mc.log
grep -q "training-set accuracy" train_mc.log
"$pnr" eval --data d/train.csv --model mc.txt > eval_mc.log
grep -q "^accuracy: " eval_mc.log
"$pnr" eval --data d/train.csv --target r2l --model m.txt --threads 2 \
       > eval.log
grep -q "ROC-AUC=" eval.log
"$pnr" predict --data d/train.csv --target r2l --model m.txt \
       --threshold 0.5 > predict.csv
[ "$(head -n 1 predict.csv)" = "row,score,predicted" ]
[ "$(wc -l < predict.csv)" -eq 2001 ]
if "$pnr" predict --data d/train.csv --model mc.txt > /dev/null \
       2> predict_mc.err; then
  echo "predict accepted a committee" >&2; exit 1
fi
grep -q "pnr eval" predict_mc.err

echo "== mine =="
"$pnr" mine --data d/train.csv --target r2l --model cars.txt --max-len 2 \
       > mine.log
grep -q "selected" mine.log
"$pnr" eval --data d/train.csv --target r2l --model cars.txt > eval_cars.log

echo "== stream replay, follow, resume =="
"$pnr" stream --data d/feed.csv --model m.txt --target r2l --out-dir so \
       --window 400 --retrain-rows 1200 --journal journal.txt \
       --checkpoint ckpt > stream.log 2> stream.err
grep -q "stream done: " stream.log
grep -q "^window " journal.txt
[ -f ckpt ] || { echo "no checkpoint" >&2; exit 1; }
"$pnr" stream --data d/feed.csv --model m.txt --target r2l --out-dir so2 \
       --window 400 --retrain-rows 1200 --follow --poll-ms 10 \
       --idle-exit-polls 2 > follow.log 2> follow.err
cmp <(grep "^window " stream.log) <(grep "^window " follow.log)
"$pnr" stream --data d/feed.csv --model m.txt --target r2l --out-dir so \
       --window 400 --retrain-rows 1200 --checkpoint ckpt --resume \
       > resume.log 2> resume.err
grep -q "^resumed at window " resume.log

echo "== tune with a grid file, CBA trials, --metric and --out =="
printf 'algorithm = pnrule, cba\nrp = 0.99\nrn = 0.9\ncba_support = 0.01\n' \
       > grid.txt
"$pnr" tune --synth kdd --target probe --synth-train 3000 --synth-test 2000 \
       --folds 3 --config grid.txt --metric f --out art > tune.log
grep -q "objective f-measure" tune.log
grep -q "^cba sup=" tune.log
[ -s art/EXPERIMENTS.md ] || { echo "no tune EXPERIMENTS.md" >&2; exit 1; }
[ -s art/BENCH_tune.json ] || { echo "no tune BENCH_tune.json" >&2; exit 1; }

echo "== serve + probe =="
"$pnr" serve --models m=m.txt --port 0 --shards 1 > serve.log &
server_pid=$!
for _ in $(seq 1 100); do
  grep -q "^serving " serve.log && break
  kill -0 "$server_pid" 2>/dev/null || { cat serve.log; exit 1; }
  sleep 0.1
done
port="$(sed -n 's/^serving .* on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' serve.log)"
[ -n "$port" ] || { cat serve.log; exit 1; }
# The first training row as attr=value cells, class column dropped.
cells="$(head -n 2 d/train.csv | awk -F, 'NR == 1 { split($0, name) }
  NR == 2 { for (i = 1; i < NF; ++i) printf "%s%s=%s", (i > 1 ? "," : ""),
            name[i], $i }')"
"$pnr" probe --port "$port" --model m --row "$cells" | grep -q "^HTTP 200 "
"$pnr" probe --port "$port" --model m --row "$cells" \
       --schema m.txt.schema --binary | grep -q "^binary ok: "
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
grep -q "drained" serve.log

echo "== bad command lines exit 2 before any work =="
expect_usage_error() {
  local status=0
  "$pnr" "$@" > bad.out 2> bad.err || status=$?
  [ "$status" -eq 2 ] || { echo "pnr $*: exit $status, want 2" >&2; exit 1; }
  grep -q "^pnr $1: " bad.err || { cat bad.err; exit 1; }
  [ ! -s bad.out ] || { echo "pnr $*: wrote to stdout" >&2; exit 1; }
}
expect_usage_error train --data d/train.csv --target r2l --rpp 0.5
expect_usage_error train --data d/train.csv --target r2l --rp abc
expect_usage_error train --data d/train.csv --target r2l --folds 3
expect_usage_error train --data d/train.csv --target r2l --model
expect_usage_error shard --data d/train.csv --out x.pns --shards -1
expect_usage_error eval --data d/train.csv --model m.txt --threads 2.7
expect_usage_error serve --models m=m.txt --port 70000
[ ! -e x.pns ] || { echo "shard wrote despite a bad flag" >&2; exit 1; }
if "$pnr" stream --data d/feed.csv --model m.txt --target r2l \
       --out-dir so0 --window 0 > /dev/null 2> window0.err; then
  echo "stream --window 0 succeeded" >&2; exit 1
fi
grep -q "window_rows must be > 0" window0.err

echo "cli smoke passed"
