#!/bin/sh
# Tier-1 gate: build, full test suite (unit + property + cram), a trace
# round-trip check, then a benchmark smoke run gated against the
# committed BENCH_1.json baseline through the regression harness.
#
# The smoke run writes to a scratch file so the committed BENCH_1.json
# baseline is never clobbered by CI. To refresh the baseline after an
# intentional performance change, run the full suite and commit the
# result:
#
#   dune exec bench/main.exe -- --out BENCH_1.json
set -eu

dune build
dune runtest

# Fault-injection sweep: the kill-at-every-checkpoint crash/resume
# matrix of the batch runner (DESIGN §9), then a short differential-fuzz
# pass whose trials include random step budgets under the degrade
# policy. Both are deterministic.
dune exec test/test_batch.exe -- test crash-resume
dune exec bin/fuzz.exe -- --trials 60 --quiet

# Request-parser fuzz: malformed, truncated, mutated, and oversized
# lines against the serving engine — every line must yield a structured
# reply, the accounting identity must hold, and the engine must keep
# answering (DESIGN §12).
dune exec bin/fuzz.exe -- --mode protocol --trials 400 --quiet

# Torn-world sweep (DESIGN §14): randomized syscall fault plans against
# the batch runner (crash/short-write/EINTR/ENOSPC/torn-tail/bit-flip on
# the journal path — recovery must classify, never re-execute a
# committed job, and converge to the fault-free journal) and the serving
# engine (non-crash faults on result publication — every reply stays
# structured and the accounting identity holds).
dune exec bin/fuzz.exe -- --mode chaos --trials 60 --quiet

# Parallelism determinism (DESIGN §13): the pool differential suite,
# then the par-mode fuzz — driver runs on a 4-domain pool must be
# bit-identical to sequential runs, error classes included.
dune exec test/test_par.exe
dune exec bin/fuzz.exe -- --mode par --trials 500 --quiet

# Streaming identity (DESIGN §16): random delta tapes against a live
# session — after every tick the summary must be byte-identical to a
# from-scratch driver run on the materialized table.
dune exec bin/fuzz.exe -- --mode stream --trials 200 --quiet

# Trace round-trip: a traced repair must emit Chrome trace JSON that the
# profiler accepts — required keys present, timestamps monotone, every
# Begin matched by an End.
tdir=$(mktemp -d -t trace_ci.XXXXXX)
sdir=$(mktemp -d -t serve_ci.XXXXXX)
out=$(mktemp -t bench_smoke.XXXXXX.json)
trap 'rm -rf "$tdir" "$sdir"; rm -f "$out"' EXIT INT TERM
printf '#id,A,B,C\n1,1,1,1\n2,1,1,2\n3,1,2,1\n' > "$tdir/t.csv"
dune exec bin/repair_cli.exe -- s-repair -f "A -> B; B -> C" \
  "$tdir/t.csv" -o /dev/null --trace="$tdir/out.json"
dune exec bin/repair_cli.exe -- profile --check "$tdir/out.json"

# CLI determinism across --domains: the same repair at 1 and 4 domains
# must write byte-identical repaired tables and reports (DESIGN §13).
# The 3-row table takes the exact rungs. The generated 2,500-row tables
# are past them: big.csv (A -> B; B -> C) compares S_approx.approx2 on
# the sharded conflict graph and U_approx.best, office.csv fans the
# top-level common-lhs blocks of OptSRepair out, and two.csv
# (A -> B; C -> D) fans the U-repair components out.
office_fds="facility -> city; facility room -> floor"
dune exec bin/repair_cli.exe -- generate -f "A -> B; B -> C" -a "A B C D" \
  --size 2500 --domain 1000 --noise 0.05 --seed 101 -o "$tdir/big.csv"
dune exec bin/repair_cli.exe -- generate -f "$office_fds" \
  -a "facility room city floor" \
  --size 2500 --domain 100 --noise 0.05 --seed 102 -o "$tdir/office.csv"
dune exec bin/repair_cli.exe -- generate -f "A -> B; C -> D" -a "A B C D" \
  --size 2500 --domain 100 --noise 0.05 --seed 103 -o "$tdir/two.csv"
for case in "t.csv|A -> B; B -> C" "big.csv|A -> B; B -> C" \
  "office.csv|$office_fds" "two.csv|A -> B; C -> D"; do
  input=${case%%|*} fds=${case#*|}
  for sub in s-repair u-repair; do
    dune exec bin/repair_cli.exe -- "$sub" -f "$fds" \
      --domains 1 "$tdir/$input" -o "$tdir/d1.csv" > "$tdir/d1.out"
    dune exec bin/repair_cli.exe -- "$sub" -f "$fds" \
      --domains 4 "$tdir/$input" -o "$tdir/d4.csv" > "$tdir/d4.out"
    cmp "$tdir/d1.csv" "$tdir/d4.csv"
    cmp "$tdir/d1.out" "$tdir/d4.out"
  done
done

# CSV IO identity: under a trivial FD every row is kept, so s-repair and
# u-repair must write their input back byte for byte — on a generated,
# weighted 100k-row office table, and on a hand-written table with a
# quoted comma, doubled quotes, a quoted newline and weights 0.5 and 2.
dune exec bin/repair_cli.exe -- generate -f "$office_fds" \
  -a "facility room city floor" --weighted \
  --size 100000 --domain 1000 --noise 0.05 --seed 104 -o "$tdir/io.csv"
printf '#id,#weight,A,B\n1,0.5,"a,b","say ""hi"""\n2,2,"two\nlines",x\n' \
  > "$tdir/hand.csv"
for case in "io.csv|facility -> facility" "hand.csv|A -> A"; do
  input=${case%%|*} fds=${case#*|}
  for sub in s-repair u-repair; do
    dune exec bin/repair_cli.exe -- "$sub" -f "$fds" "$tdir/$input" \
      -o "$tdir/io.out"
    cmp "$tdir/$input" "$tdir/io.out"
  done
done

# Pre-framing journals (DESIGN §14): a plain-JSONL journal fails the
# frame grammar at byte 0, so a resume refuses it as corruption — exit
# code 11, every byte moved to the sidecar, the journal emptied — and a
# second resume runs every job again, writing only framed records.
printf '{"jobs": [{"id": "a", "input": "%s", "fds": "A -> B; B -> C"},
 {"id": "b", "input": "%s", "fds": "A -> B; B -> C"}]}\n' \
  "$tdir/t.csv" "$tdir/t.csv" > "$tdir/m.json"
printf '%s\n' '{"event":"begin","jobs":2}' \
  '{"event":"start","job":"a","attempt":1}' \
  '{"event":"commit","job":"a","attempt":1,"status":"ok","method":"m","distance":1.0}' \
  > "$tdir/legacy.jsonl"
cp "$tdir/legacy.jsonl" "$tdir/legacy.orig"
upg_code=0
dune exec bin/repair_cli.exe -- batch "$tdir/m.json" \
  --journal "$tdir/legacy.jsonl" --resume -o /dev/null \
  2> "$tdir/upg.err" || upg_code=$?
[ "$upg_code" -eq 11 ]
grep -q 'corruption at byte 0' "$tdir/upg.err"
cmp "$tdir/legacy.orig" "$tdir/legacy.jsonl.corrupt"
[ ! -s "$tdir/legacy.jsonl" ]
dune exec bin/repair_cli.exe -- batch "$tdir/m.json" \
  --journal "$tdir/legacy.jsonl" --resume -o "$tdir/upg.json"
grep -q '"replayed": 0' "$tdir/upg.json"
[ -s "$tdir/legacy.jsonl" ]
[ "$(grep -vc '^@' "$tdir/legacy.jsonl")" -eq 0 ]   # only framed records

# Serving drill (DESIGN §12): daemon on a temp Unix socket; a pipelined
# burst with poison requests and malformed lines — every line must be
# answered (so tail latency is finite, not a hang); then SIGTERM while a
# second burst is in flight — the drain must finish with a documented
# exit code (0 clean, 10 deadline cancellations) and flush a snapshot
# whose accounting identity balances.
./_build/default/bin/repair_cli.exe serve --socket "$sdir/s.sock" \
  --metrics-out "$sdir/snap.json" 2> "$sdir/server.log" &
srv=$!
for _ in $(seq 100); do [ -S "$sdir/s.sock" ] && break; sleep 0.1; done
[ -S "$sdir/s.sock" ]
./_build/default/bin/repair_cli.exe load --socket "$sdir/s.sock" \
  -n 40 -c 4 --rows 12 --poison-every 7 --malformed-every 9 \
  -o "$sdir/load1.json"
grep -q '"unanswered": 0' "$sdir/load1.json"       # nothing hung
grep -q '"count": 40' "$sdir/load1.json"           # p99 over all 40 requests
./_build/default/bin/repair_cli.exe load --socket "$sdir/s.sock" \
  -n 60 -c 4 --rows 40 --wall-timeout 30 -o "$sdir/load2.json" &
ldr=$!
sleep 0.3
kill -TERM "$srv"
drain_code=0; wait "$srv" || drain_code=$?
[ "$drain_code" -eq 0 ] || [ "$drain_code" -eq 10 ]
wait "$ldr" || true   # mid-drain lines may legitimately go unanswered
grep -q '"mode": "draining"' "$sdir/snap.json"
# admitted = completed + quarantined + cancelled + queue_depth — the
# serve section leads the snapshot, so first matches are the right ones.
snap_field() { grep -m1 "\"$1\":" "$sdir/snap.json" | tr -dc '0-9'; }
admitted=$(snap_field admitted)
settled=$(( $(snap_field completed) + $(snap_field quarantined) \
  + $(snap_field cancelled) + $(snap_field queue_depth) ))
[ "$admitted" -eq "$settled" ]

# Telemetry drill (DESIGN §15): a 4-domain daemon with tracing, a slow
# log, and fast stats windows; a burst; a mid-burst scrape of the text
# exposition (validated by the grammar checker); a `top --once` view
# whose totals cross-check the final snapshot; and a Chrome trace with
# worker-lane spans carrying wire request ids.
./_build/default/bin/repair_cli.exe serve --socket "$sdir/t.sock" \
  --domains 4 --slow-ms 0.001 --slow-log "$sdir/slow.jsonl" \
  --stats-interval 0.2 --trace "$sdir/t.trace.json" \
  --metrics-out "$sdir/tsnap.json" 2> "$sdir/tserver.log" &
tsrv=$!
for _ in $(seq 100); do [ -S "$sdir/t.sock" ] && break; sleep 0.1; done
[ -S "$sdir/t.sock" ]
./_build/default/bin/repair_cli.exe load --socket "$sdir/t.sock" \
  -n 30 -c 3 --rows 12 -o "$sdir/tload.json" &
tldr=$!
./_build/default/bin/repair_cli.exe top --socket "$sdir/t.sock" --expo \
  | ./_build/default/test/expo_check.exe
wait "$tldr"
grep -q '"unanswered": 0' "$sdir/tload.json"
sleep 0.5   # let the last stats window close past the 0.2s interval
./_build/default/bin/repair_cli.exe top --socket "$sdir/t.sock" --once \
  > "$sdir/top.txt"
grep -q '^windows [1-9]' "$sdir/top.txt"             # non-empty series
grep -q '^total.serve.requests 30' "$sdir/top.txt"   # totals match the burst
grep -Eq '^rate\.serve\.requests [0-9]*\.?[0-9]*[1-9]' "$sdir/top.txt"
./_build/default/bin/repair_cli.exe top --socket "$sdir/t.sock" --expo \
  | ./_build/default/test/expo_check.exe
[ -s "$sdir/slow.jsonl" ]                            # 1µs threshold: all slow
grep -q '"req": *"c' "$sdir/slow.jsonl"
kill -TERM "$tsrv"
tdrain=0; wait "$tsrv" || tdrain=$?
[ "$tdrain" -eq 0 ]
# `top` totals were a live view of the same counters the snapshot
# flushes: a clean 30-request burst settles 30, so the top view's
# cumulative serve.requests equals the snapshot's completed count.
tsnap_field() { grep -m1 "\"$1\":" "$sdir/tsnap.json" | tr -dc '0-9'; }
[ "$(tsnap_field completed)" -eq \
  "$(grep -m1 '^total.serve.requests ' "$sdir/top.txt" | tr -dc '0-9')" ]
# Worker-domain spans ride per-task lanes (tid >= 2) stamped with the
# wire request id of the request whose solver half they ran.
grep -q '"req": *"c' "$sdir/t.trace.json"
grep -Eq '"tid": *[2-9]' "$sdir/t.trace.json"
grep -q '"traceEvents"' "$sdir/t.trace.json"

# Streaming drill (DESIGN §16): a 4-domain daemon; a 1000-delta JSONL
# tape replayed through `repair-cli stream` over the socket in 50-line
# chunks; the final repaired table and summary must be byte-identical
# to a cold s-repair run on the materialized table (dumped by a
# local-mode replay of the same tape); and the `top --once` stream row
# must reflect the tape (1000 ticks, a live block-cache hit rate).
# Then a hard tape (A -> B; B -> C, a generated 300-row table and 200
# deltas, past the exact gate) replays through the daemon and locally:
# both repairs and summary lines must equal a cold s-repair's.
awk 'BEGIN{print "#id,#weight,A,B";
  for(i=1;i<=500;i++) printf "%d,1,%d,%d\n", i, i%100+1, i%7+1}' \
  > "$sdir/sbase.csv"
awk 'BEGIN{for(k=0;k<1000;k++){
  if(k%2==0)
    printf "{\"op\":\"insert\",\"id\":%d,\"weight\":1.0,\"tuple\":[%d,%d]}\n", \
      501+k,(k*13)%100+1,(k*3)%7+1;
  else printf "{\"op\":\"delete\",\"id\":%d}\n",(97*(k-1)/2)%500+1 }}' \
  > "$sdir/tape.jsonl"
./_build/default/bin/repair_cli.exe serve --socket "$sdir/st.sock" \
  --domains 4 --metrics-out "$sdir/ssnap.json" 2> "$sdir/sserver.log" &
ssrv=$!
for _ in $(seq 100); do [ -S "$sdir/st.sock" ] && break; sleep 0.1; done
[ -S "$sdir/st.sock" ]
./_build/default/bin/repair_cli.exe stream -f "A -> B" "$sdir/sbase.csv" \
  --deltas "$sdir/tape.jsonl" --socket "$sdir/st.sock" --chunk 50 \
  -o "$sdir/swire.csv" > "$sdir/swire.out" 2>&1
./_build/default/bin/repair_cli.exe stream -f "A -> B" "$sdir/sbase.csv" \
  --deltas "$sdir/tape.jsonl" --dump-table "$sdir/smat.csv" \
  -o "$sdir/slocal.csv" > /dev/null 2>&1
./_build/default/bin/repair_cli.exe s-repair -f "A -> B" "$sdir/smat.csv" \
  -o "$sdir/scold.csv" 2> "$sdir/scold.err"
cmp "$sdir/swire.csv" "$sdir/scold.csv"    # wire repair = cold repair
cmp "$sdir/swire.csv" "$sdir/slocal.csv"   # wire repair = local replay
[ "$(sed -n 's/^stream: \(distance=.*\)/\1/p' "$sdir/swire.out")" = \
  "$(sed -n 's/^s-repair: \(distance=.*\)/\1/p' "$sdir/scold.err")" ]
./_build/default/bin/repair_cli.exe top --socket "$sdir/st.sock" --once \
  > "$sdir/stop.txt"
grep -q '^total.stream.ticks 1000' "$sdir/stop.txt"
grep -q '^stream.ticks_per_s ' "$sdir/stop.txt"
grep -Eq '^stream.affected_ratio 0\.[0-9]+' "$sdir/stop.txt"
grep -Eq '^stream.cache_hit_rate 0\.[0-9]+' "$sdir/stop.txt"
hard_fds="A -> B; B -> C"
./_build/default/bin/repair_cli.exe generate -f "$hard_fds" -a "A B C" \
  --size 300 --domain 100 --noise 0.1 --seed 105 -o "$sdir/hbase.csv"
awk 'BEGIN{for(k=0;k<200;k++){
  if(k%2==0)
    printf "{\"op\":\"insert\",\"id\":%d,\"tuple\":[%d,%d,%d]}\n", \
      301+k,(k*7)%100+1,(k*11)%100+1,(k*13)%100+1;
  else printf "{\"op\":\"delete\",\"id\":%d}\n",(37*(k-1)/2)%300+1 }}' \
  > "$sdir/htape.jsonl"
./_build/default/bin/repair_cli.exe stream -f "$hard_fds" "$sdir/hbase.csv" \
  --deltas "$sdir/htape.jsonl" --socket "$sdir/st.sock" --chunk 50 \
  -o "$sdir/hwire.csv" > "$sdir/hwire.out" 2>&1
./_build/default/bin/repair_cli.exe stream -f "$hard_fds" "$sdir/hbase.csv" \
  --deltas "$sdir/htape.jsonl" --dump-table "$sdir/hmat.csv" \
  -o "$sdir/hlocal.csv" > "$sdir/hlocal.out" 2>&1
./_build/default/bin/repair_cli.exe s-repair -f "$hard_fds" "$sdir/hmat.csv" \
  -o "$sdir/hcold.csv" 2> "$sdir/hcold.err"
cmp "$sdir/hwire.csv" "$sdir/hcold.csv"    # wire repair = cold repair
cmp "$sdir/hlocal.csv" "$sdir/hcold.csv"   # local repair = cold repair
hcold=$(sed -n 's/^s-repair: \(distance=.*\)/\1/p' "$sdir/hcold.err")
grep -q 'within factor 2' "$sdir/hcold.err"   # the approximation rung
[ "$(sed -n 's/^stream: \(distance=.*\)/\1/p' "$sdir/hwire.out")" = "$hcold" ]
[ "$(sed -n 's/^stream: \(distance=.*\)/\1/p' "$sdir/hlocal.out")" = "$hcold" ]
kill -TERM "$ssrv"
sdrain=0; wait "$ssrv" || sdrain=$?
[ "$sdrain" -eq 0 ]

# Median-of-3 runs keep the ms-scale smoke records (including the E20
# 1k sweep point) below the compare gate's noise threshold.
dune exec bench/main.exe -- --smoke --runs 3 --out "$out"

# Self-comparison exercises the parser and the matching logic; identical
# inputs must report zero regressions.
dune exec bench/compare.exe -- "$out" "$out"

# Regression gate against the committed baseline: the smoke subset is
# compared record-by-record; --subset lets the baseline carry the full
# suite without the smoke run's missing records counting as vanished.
# The allowance is calibrated for shared CI hosts, where ms-scale
# records of unchanged code swing 1.5-2x between runs: this gate exists
# to catch accidental asymptotic blowups (those show up as 10x+), while
# precise tracking belongs to full-suite runs on a quiet machine with
# the default 25% threshold.
dune exec bench/compare.exe -- BENCH_1.json "$out" --subset \
  --threshold 150 --min-ms 2

echo "ci: OK"
