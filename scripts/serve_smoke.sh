#!/bin/sh
# serve-smoke: the dfenced crash-recovery gate.
#
# Starts the service, submits examples/mailbox.mc with a round size large
# enough that the run spans several seconds, SIGKILLs the daemon once the
# journal holds a checkpoint, restarts it on the same spool, and asserts
# the job resumes to completion with the expected fence — then that a
# resubmission answers from the memo, and that SIGTERM drains cleanly. A
# third life on the same spool (its job log now compacted) must still
# report the job done with the same fences and answer a further
# resubmission from the memo. Everything the run touches stays under
# $SMOKE_DIR so CI can upload it as an artifact when an assertion trips.
#
#   SMOKE_DIR  working directory (default /tmp/dfence_serve_smoke; wiped)
#   GO         go command (default go)
#   EXECS      executions per round (default 400000 — sized so one round
#              takes seconds, leaving a wide window to kill inside)
set -eu

GO=${GO:-go}
DIR=${SMOKE_DIR:-/tmp/dfence_serve_smoke}
EXECS=${EXECS:-400000}
SPOOL="$DIR/spool"
PID=

say()  { echo "serve-smoke: $*"; }
fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

rm -rf "$DIR"
mkdir -p "$DIR"
say "building dfenced"
$GO build -o "$DIR/dfenced" ./cmd/dfenced

# start_daemon <logfile>: launches dfenced on an ephemeral port and sets
# PID and ADDR (parsed from the startup line).
start_daemon() {
    "$DIR/dfenced" -spool "$SPOOL" -listen 127.0.0.1:0 -jobs 1 2>"$1" &
    PID=$!
    ADDR=
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's|.*serving on http://\([^ ]*\).*|\1|p' "$1" | head -1)
        [ -n "$ADDR" ] && return 0
        kill -0 "$PID" 2>/dev/null || fail "daemon died at startup: $(cat "$1")"
        i=$((i + 1))
        sleep 0.1
    done
    fail "daemon never reported its address: $(cat "$1")"
}

say "starting dfenced (life 1)"
start_daemon "$DIR/daemon1.log"

say "submitting examples/mailbox.mc (execs=$EXECS)"
"$DIR/dfenced" submit -addr "$ADDR" -model pso -seed 7 -execs "$EXECS" -rounds 6 \
    examples/mailbox.mc >"$DIR/submit1.out"
cat "$DIR/submit1.out"
JOB=$(cut -f1 <"$DIR/submit1.out")
[ -n "$JOB" ] || fail "no job id in submit output"
JOURNAL="$SPOOL/journals/$JOB.jsonl"

# Wait for the first checkpoint to hit the journal, then pull the plug.
# (If the box is fast enough that the run converges before we look, the
# kill still exercises restart discovery — just not mid-run resume.)
say "waiting for a checkpoint in $JOURNAL"
i=0
while [ $i -lt 2400 ]; do
    if grep -q '"ev":"Checkpoint"' "$JOURNAL" 2>/dev/null; then
        say "checkpoint journaled; SIGKILLing daemon"
        break
    fi
    if grep -q '"ev":"Converged"' "$JOURNAL" 2>/dev/null; then
        say "run converged before the kill window (EXECS=$EXECS too small for this machine); killing anyway"
        break
    fi
    i=$((i + 1))
    sleep 0.05
done
[ $i -lt 2400 ] || fail "no checkpoint appeared within 120s"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=

say "restarting dfenced on the same spool (life 2)"
start_daemon "$DIR/daemon2.log"

say "waiting for job $JOB to finish"
"$DIR/dfenced" wait -addr "$ADDR" "$JOB" >"$DIR/result.json" || {
    cat "$DIR/result.json"
    fail "job did not reach done after restart"
}
cat "$DIR/result.json"
grep -q '"outcome": *"converged"' "$DIR/result.json" || fail "job did not converge"
NFENCES=$(grep -c '"kind": *"fence(st-st)"' "$DIR/result.json") || true
[ "$NFENCES" = 1 ] || fail "expected exactly 1 fence(st-st), got $NFENCES"

say "journal replays through the strict reader"
$GO run ./cmd/dfence explain "$JOURNAL" >/dev/null || fail "resumed journal does not replay cleanly"

say "resubmitting the same spec (must hit the memo)"
"$DIR/dfenced" submit -addr "$ADDR" -model pso -seed 7 -execs "$EXECS" -rounds 6 \
    examples/mailbox.mc >"$DIR/submit2.out"
cat "$DIR/submit2.out"
grep -q "from_memo" "$DIR/submit2.out" || fail "resubmission did not hit the memo"

say "draining with SIGTERM"
kill -TERM "$PID"
wait "$PID" || fail "daemon exited non-zero on graceful shutdown"
PID=

# fences <file>: the fence fields of a job record or result, whitespace
# stripped, so a result and a full record compare.
fences() { grep -E '"(after|label|kind|func)":' "$1" | tr -d ' '; }

say "restarting dfenced on the drained spool (life 3)"
start_daemon "$DIR/daemon3.log"
# A job that never retried has no next retry time, so its records must not
# carry the zero time in its place.
! grep -q '"next_retry":"0001-01-01T00:00:00Z"' "$SPOOL/jobs.log" ||
    fail "the compacted jobs.log records a zero next_retry"
"$DIR/dfenced" status -addr "$ADDR" "$JOB" >"$DIR/status3.json" || fail "status of $JOB failed in life 3"
cat "$DIR/status3.json"
grep -q '"state": *"done"' "$DIR/status3.json" || fail "job $JOB is no longer done after a restart"
[ -n "$(fences "$DIR/result.json")" ] || fail "no fences in the life-2 result"
[ "$(fences "$DIR/status3.json")" = "$(fences "$DIR/result.json")" ] ||
    fail "life 3 reports fences $(fences "$DIR/status3.json"), life 2 reported $(fences "$DIR/result.json")"

say "resubmitting the same spec again (must hit the memo read from the job log)"
"$DIR/dfenced" submit -addr "$ADDR" -model pso -seed 7 -execs "$EXECS" -rounds 6 \
    examples/mailbox.mc >"$DIR/submit3.out"
cat "$DIR/submit3.out"
grep -q "from_memo" "$DIR/submit3.out" || fail "resubmission in life 3 did not hit the memo"

kill -TERM "$PID"
wait "$PID" || fail "daemon exited non-zero on graceful shutdown (life 3)"
PID=

say "ok (crash mid-run, resume to convergence, memo hit, graceful drain, restart on the compacted spool)"
