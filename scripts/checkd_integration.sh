#!/usr/bin/env bash
# End-to-end exercise of the resident check server, as CI runs it:
# start stg_checkd, submit every example net as one batch, stream the
# event records to completion, compare each daemon report field-for-field
# against a one-shot `stg_check --json` run of the same net, exercise the
# resource-governance path (a node-budgeted check answers a typed
# resource_exhausted result, then the same daemon serves a normal check),
# round-trip a cancel, scrape the metrics op (cumulative + per-session,
# JSON and Prometheus renderings, the daemon latency histograms), and
# shut the daemon down cleanly (the process must exit 0 on its own).
# A second daemon at --threads 2 then checks on the wire that a small
# check is not queued behind a slow batch net.
#
# Usage: checkd_integration.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
NETS_DIR="examples/nets"
for tool in stg_checkd stg_checkd_client stg_check_tool; do
  [[ -x "$BUILD_DIR/$tool" ]] || { echo "missing $BUILD_DIR/$tool (build first)" >&2; exit 1; }
done

WORK_DIR="$(mktemp -d)"
SOCKET="$WORK_DIR/checkd.sock"
DAEMON_PID=
cleanup() {
  [[ -n "$DAEMON_PID" ]] && kill "$DAEMON_PID" 2> /dev/null || true
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# wait_for_daemon SOCKET: blocks until the daemon in DAEMON_PID listens.
wait_for_daemon() {
  for _ in $(seq 1 100); do
    [[ -S "$1" ]] && return 0
    kill -0 "$DAEMON_PID" 2> /dev/null || { echo "daemon died on startup" >&2; exit 1; }
    sleep 0.1
  done
  echo "daemon socket never appeared" >&2
  exit 1
}

"$BUILD_DIR/stg_checkd" --socket "$SOCKET" --threads 4 &
DAEMON_PID=$!
wait_for_daemon "$SOCKET"

echo "== ping"
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --ping

echo "== batch $(ls "$NETS_DIR"/*.g | wc -l) nets at 4 threads (streaming)"
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --batch "$NETS_DIR"/*.g \
  > "$WORK_DIR/daemon.jsonl"

echo "== one-shot baselines"
for net in "$NETS_DIR"/*.g; do
  name="$(basename "$net" .g)"
  # stg_check exits 2 for a correctly diagnosed non-implementable net.
  "$BUILD_DIR/stg_check_tool" --json "$net" > "$WORK_DIR/oneshot_$name.json" || {
    status=$?
    [[ "$status" -eq 2 ]] || { echo "stg_check_tool failed on $net ($status)" >&2; exit "$status"; }
  }
done

echo "== compare daemon reports against one-shot reports"
python3 - "$WORK_DIR" "$NETS_DIR" <<'PY'
import json, pathlib, sys

work, nets_dir = pathlib.Path(sys.argv[1]), sys.argv[2]

def strip_times(report):
    return {k: v for k, v in report.items() if k != "times"}

results, events, batch_done = {}, 0, False
for line in (work / "daemon.jsonl").read_text().splitlines():
    if not line.strip():
        continue
    doc = json.loads(line)
    if "event" in doc:
        events += 1
        continue
    kind = doc.get("reply")
    if kind == "error":
        sys.exit(f"daemon error reply: {line}")
    if kind == "result":
        if "error" in doc:
            sys.exit(f"session failed: {line}")
        results[doc["session"]] = strip_times(doc["report"])
    if kind == "batch_done":
        batch_done = True

if not batch_done:
    sys.exit("stream ended without batch_done")
if events == 0:
    sys.exit("no event records were streamed")

nets = sorted(pathlib.Path(nets_dir).glob("*.g"))
if len(results) != len(nets):
    sys.exit(f"expected {len(nets)} results, got {len(results)}: {sorted(results)}")

for net in nets:
    oneshot = json.loads((work / f"oneshot_{net.stem}.json").read_text())
    expected = strip_times(oneshot["report"])
    got = results[str(net)]  # sessions are keyed by the submitted path
    if got != expected:
        sys.exit(f"{net}: daemon report diverged from one-shot\n"
                 f"  daemon:  {json.dumps(got, sort_keys=True)}\n"
                 f"  oneshot: {json.dumps(expected, sort_keys=True)}")
    print(f"  {net.stem}: {got['level']} -- identical ({events} events streamed in total)")
PY

echo "== node-budget check trips, then the daemon keeps serving"
# One connection, two checks: the capped one must answer a typed
# resource_exhausted result (exit 1: the client saw no report), then a
# normal check of the same net must still succeed on the fresh connection.
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --quiet \
  --max-live-nodes 64 "$NETS_DIR/vme_read.g" > "$WORK_DIR/capped.jsonl" || true
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --quiet \
  "$NETS_DIR/vme_read.g" > "$WORK_DIR/after_cap.jsonl"
python3 - "$WORK_DIR" <<'PY'
import json, pathlib, sys

work = pathlib.Path(sys.argv[1])
capped = [json.loads(l) for l in (work / "capped.jsonl").read_text().splitlines() if l.strip()]
results = [d for d in capped if d.get("reply") == "result"]
if len(results) != 1:
    sys.exit(f"expected one result for the capped check, got: {results}")
r = results[0]
if r.get("outcome") != "resource_exhausted" or "report" in r:
    sys.exit(f"capped check did not stop with a typed outcome: {r}")
if r["trip"]["limit"] != "node_cap" or r["trip"]["live_nodes"] <= 64:
    sys.exit(f"trip gauges look wrong: {r['trip']}")

after = [json.loads(l) for l in (work / "after_cap.jsonl").read_text().splitlines() if l.strip()]
reports = [d for d in after if d.get("reply") == "result" and "report" in d]
if len(reports) != 1:
    sys.exit(f"daemon did not serve a normal check after the budget trip: {after}")
print(f"  capped: {r['outcome']} at {int(r['trip']['live_nodes'])} live nodes; "
      f"uncapped rerun: {reports[0]['report']['level']}")
PY

echo "== cancel round-trip"
# Cancelling an id the daemon has finished (or never saw) must answer the
# typed code, not a hang or a crash; both shapes prove the op round-trips.
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --quiet \
  --cancel "no-such-session" > "$WORK_DIR/cancel.jsonl" || true
python3 - "$WORK_DIR" <<'PY'
import json, pathlib, sys

work = pathlib.Path(sys.argv[1])
lines = [json.loads(l) for l in (work / "cancel.jsonl").read_text().splitlines() if l.strip()]
if len(lines) != 1:
    sys.exit(f"expected one reply to cancel, got: {lines}")
reply = lines[0]
if reply.get("reply") == "error":
    if reply.get("code") not in ("unknown_session", "session_finished"):
        sys.exit(f"cancel error lacks a typed code: {reply}")
elif reply.get("reply") != "cancelled":
    sys.exit(f"unexpected cancel reply: {reply}")
print(f"  cancel reply: {reply.get('reply')} ({reply.get('code', 'ok')})")
PY

echo "== metrics op: saturation check, then scrape"
# A saturation check drives the in-kernel REACH machinery; the cumulative
# scrape must then show nonzero reach / rel_next op counters (rel_next
# counts every saturation rule firing), and the finished session's own
# snapshot must be served from the per-session ring.
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --quiet \
  --engine saturation "$NETS_DIR/muller4.g" > "$WORK_DIR/sat_check.jsonl"
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --quiet \
  --metrics > "$WORK_DIR/metrics.jsonl"
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --metrics \
  > "$WORK_DIR/metrics.prom"
python3 - "$WORK_DIR" <<'PY'
import json, pathlib, sys

work = pathlib.Path(sys.argv[1])
sat = [json.loads(l) for l in (work / "sat_check.jsonl").read_text().splitlines() if l.strip()]
session = next(d["session"] for d in sat if d.get("reply") == "result")

lines = [json.loads(l) for l in (work / "metrics.jsonl").read_text().splitlines() if l.strip()]
if len(lines) != 1 or lines[0].get("reply") != "metrics":
    sys.exit(f"expected one metrics reply, got: {lines}")
reply = lines[0]
if reply.get("sessions", 0) < 1:
    sys.exit(f"cumulative metrics folded no sessions: {reply}")
counters = reply["metrics"]["counters"]
for name in ("op_calls_reach", "op_calls_rel_next"):
    if counters.get(name, 0) <= 0:
        sys.exit(f"cumulative scrape lacks a nonzero {name}: {counters}")
histograms = reply["metrics"]["histograms"]
for name in ("server_queue_wait_seconds", "server_session_run_seconds"):
    if histograms.get(name, {}).get("count", 0) <= 0:
        sys.exit(f"cumulative scrape lacks a nonzero {name}_count: {histograms}")

prom = (work / "metrics.prom").read_text()
for needle in ("# TYPE op_calls_reach counter", "op_calls_rel_next ",
               "# TYPE server_queue_wait_seconds histogram",
               "server_session_run_seconds_count "):
    if needle not in prom:
        sys.exit(f"Prometheus rendering lacks {needle!r}:\n{prom}")

print(f"  cumulative: {reply['sessions']} sessions folded, "
      f"reach={int(counters['op_calls_reach'])} "
      f"rel_next={int(counters['op_calls_rel_next'])} "
      f"queue_wait_count={int(histograms['server_queue_wait_seconds']['count'])} "
      f"run_count={int(histograms['server_session_run_seconds']['count'])} "
      f"(per-session lookup target: {session})")
(work / "session_id").write_text(session)
PY
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --quiet \
  --metrics --session "$(cat "$WORK_DIR/session_id")" > "$WORK_DIR/metrics_session.jsonl"
python3 - "$WORK_DIR" <<'PY'
import json, pathlib, sys

work = pathlib.Path(sys.argv[1])
lines = [json.loads(l) for l in (work / "metrics_session.jsonl").read_text().splitlines() if l.strip()]
if len(lines) != 1 or lines[0].get("reply") != "metrics":
    sys.exit(f"expected one per-session metrics reply, got: {lines}")
counters = lines[0]["metrics"]["counters"]
if counters.get("op_calls_reach", 0) != 1:
    sys.exit(f"per-session snapshot should show exactly one reach call: {counters}")
print(f"  per-session: reach={int(counters['op_calls_reach'])} "
      f"rel_next={int(counters['op_calls_rel_next'])}")
PY

echo "== status + shutdown"
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --status
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET" --shutdown
wait "$DAEMON_PID"
DAEMON_PID=

echo "== 2 threads: a small check is not queued behind a slow batch net"
# One worker takes a batch holding one slow net (a default-config
# muller64 runs for minutes); a small check sent once that net has
# started must get its result from the other worker before the batch's
# batch_done. The slow net is then cancelled, so this pass stays short
# on any build; a scheduler that queues the small check behind it fails
# at the client timeout instead.
"$BUILD_DIR/stg_check_tool" --family muller64 --write-back --max-steps 1 \
  > "$WORK_DIR/muller64.out" || [[ $? -eq 3 ]]
sed '/^\.end/q' "$WORK_DIR/muller64.out" > "$WORK_DIR/muller64.g"
SOCKET2="$WORK_DIR/checkd2.sock"
"$BUILD_DIR/stg_checkd" --socket "$SOCKET2" --threads 2 &
DAEMON_PID=$!
wait_for_daemon "$SOCKET2"
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET2" --batch \
  "$WORK_DIR/muller64.g" > "$WORK_DIR/slow_batch.jsonl" &
BATCH_PID=$!
for _ in $(seq 1 300); do
  grep -q '"event":"session_start"' "$WORK_DIR/slow_batch.jsonl" && break
  sleep 0.1
done
timeout 60 "$BUILD_DIR/stg_checkd_client" --socket "$SOCKET2" \
  "$NETS_DIR/muller4.g" > "$WORK_DIR/small.jsonl" || true
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET2" --quiet \
  --cancel "$WORK_DIR/muller64.g" > /dev/null || true
wait "$BATCH_PID" || true  # exit 1: the cancelled net has no report
python3 - "$WORK_DIR" <<'PY'
import json, pathlib, sys

work = pathlib.Path(sys.argv[1])
def load(name):
    return [json.loads(l) for l in (work / name).read_text().splitlines() if l.strip()]

small, batch = load("small.jsonl"), load("slow_batch.jsonl")
if not any(d.get("event") == "session_start" for d in batch):
    sys.exit(f"the slow net never started: {batch}")
results = [d for d in small if d.get("reply") == "result" and "report" in d]
if len(results) != 1:
    sys.exit(f"the small check got no result while the slow net ran: {small}")
done = [d for d in batch if d.get("reply") == "batch_done"]
slow = [d for d in batch if d.get("reply") == "result"]
if len(done) != 1 or len(slow) != 1 or slow[0].get("outcome") != "cancelled":
    sys.exit(f"the slow batch did not end cancelled: {batch[-3:]}")
# Both streams carry the daemon's clock: the small check's last event
# precedes its result line, which must precede the batch's batch_done.
small_end = max(d["at"] for d in small if "event" in d)
if not small_end < done[0]["at"]:
    sys.exit(f"small check ended at {small_end}, after batch_done at {done[0]['at']}")
print(f"  small check done at {small_end:.3f} s, slow batch_done at "
      f"{done[0]['at']:.3f} s (cancelled)")
PY
"$BUILD_DIR/stg_checkd_client" --socket "$SOCKET2" --shutdown
wait "$DAEMON_PID"
DAEMON_PID=
echo "checkd integration: OK"
