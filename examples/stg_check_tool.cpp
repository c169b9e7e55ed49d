// stg_check: the command-line implementability checker -- the one-shot,
// one-session consumer of the session layer (core/session.hpp). Parsing
// aside, everything it does is: build a CheckSession, run it, render the
// session's report and event records. The resident form of the same
// pipeline is stg_checkd (examples/stg_checkd.cpp).
//
//   usage: stg_check [options] <file.g | --family NAME>
//     --family NAME     check a generated family instance (muller16,
//                       mread8, mutex12, ... -- the bench roster of
//                       stg/generators.hpp) instead of a .g file
//     --arbitrate A,B   declare an arbitration pair (repeatable; footnote 1)
//     --ordering  O     interleaved (default) | clustered | random
//     --strategy  S     chaining
//     --engine    E     saturation (default) | cofactor | monolithic
//                       (image backend; cofactor is the paper's method,
//                       Fig. 5 chaining; see docs/architecture.md)
//     --threads   1     accepted and ignored (the BDD kernel is
//                       sequential; other counts are an error)
//     --initial-nodes N   initial node capacity of the BDD manager
//     --max-live-nodes N  resource budget: live-node cap (0 = unlimited)
//     --max-seconds   S   resource budget: wall-clock deadline
//     --max-steps     N   resource budget: pass/saturation-step cap
//                       (a tripped budget ends the check with a typed
//                       resource_exhausted record and exit status 3)
//     --trace FILE      record Chrome trace_event spans (traversal passes,
//                       engine image calls, GC, sift, REACH rule firings)
//                       and write the chrome://tracing-loadable JSON here
//     --profile         arm kernel wall-clock profiling (per-op, GC and
//                       sift timings in the metrics snapshot); off by
//                       default so plain runs read no clock in the kernel
//     --json            machine-readable output: one JSON document with
//                       the typed event records and the full report
//                       (field-for-field the facts of the human summary;
//                       same schema as the stg_checkd "result" reply)
//     --equations       also derive and print the complex-gate netlist
//     --explain         print firing-trace witnesses for CSC/persistency
//                       violations (uses the explicit engine)
//     --dot             print the STG as Graphviz dot
//     --write-back      echo the parsed STG in .g format (round-trip check)
//
// Exit status: 0 if the STG is gate- or I/O-implementable, 2 otherwise,
// 3 if a resource budget tripped before a verdict, 1 on usage or parse
// errors.
//
// All configuration flags are owned by core::CheckConfig::consume_flag
// -- the same parse path the daemon's "options" object uses -- so the
// CLI and the wire can never drift apart.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/session.hpp"
#include "logic/logic.hpp"
#include "server/protocol.hpp"
#include "sg/witnesses.hpp"
#include "stg/astg_io.hpp"
#include "stg/dot_export.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

void usage() {
  std::fputs(
      "usage: stg_check [options] <file.g | --family NAME>\n"
      "  --family NAME     check a generated family instance (muller16,\n"
      "                    mread8, mutex12, ...) instead of a .g file\n"
      "  --arbitrate A,B   declare an arbitration signal pair (repeatable)\n"
      "  --ordering  O     interleaved (default) | clustered | random\n"
      "  --strategy  S     chaining\n"
      "  --engine    E     saturation (default) | cofactor | monolithic\n"
      "                    (cofactor: the paper's method, Fig. 5 chaining)\n"
      "  --threads   1     accepted and ignored (the kernel is sequential)\n"
      "  --initial-nodes N   initial BDD manager capacity\n"
      "  --max-live-nodes N  budget: live-node cap (0 = unlimited)\n"
      "  --max-seconds   S   budget: wall-clock deadline\n"
      "  --max-steps     N   budget: pass/saturation-step cap\n"
      "  --trace FILE      write a Chrome trace_event JSON document\n"
      "  --profile         arm kernel wall-clock profiling\n"
      "  --json            machine-readable event records + report\n"
      "  --equations       derive and print the complex-gate netlist\n"
      "  --explain         print firing-trace witnesses for violations\n"
      "  --dot             print the STG as Graphviz dot\n"
      "  --write-back      echo the parsed STG in .g format\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stgcheck;

  core::SessionOptions options;
  bool json_output = false;
  bool equations = false;
  bool explain = false;
  bool dot = false;
  bool write_back = false;
  std::string path;
  std::string family;

  // One pass over argv: config flags go through the unified parse path,
  // everything else is tool-local.
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    try {
      if (options.consume_flag(args, i)) continue;
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    if (arg == "--json") {
      json_output = true;
    } else if (arg == "--family") {
      if (i + 1 >= args.size()) {
        std::fputs("--family expects an instance name\n", stderr);
        return 1;
      }
      family = args[++i];
    } else if (arg == "--equations") {
      equations = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--write-back") {
      write_back = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return 1;
    } else if (path.empty()) {
      path = arg;
    } else {
      usage();
      return 1;
    }
  }
  if (path.empty() == family.empty()) {  // exactly one input source
    usage();
    return 1;
  }

  try {
    stg::Stg spec = family.empty() ? stg::parse_astg_file(path)
                                   : stg::make_family_instance(family);
    spec.validate();
    if (write_back) {
      std::fputs(stg::write_astg_string(spec).c_str(), stdout);
    }
    if (dot) {
      std::fputs(stg::to_dot(spec).c_str(), stdout);
    }

    options.validate();
    core::CheckSession session(spec, std::move(options));
    const core::ImplementabilityReport& report = session.run();
    const bool governed_stop =
        session.outcome() != core::SessionOutcome::kCompleted;

    if (json_output) {
      json::Value events = json::Value::array();
      for (const core::EventRecord& record : session.events().records()) {
        events.push_back(server::event_to_json(record));
      }
      json::Value doc = json::Value::object();
      doc.set("events", std::move(events));
      if (governed_stop) {
        // No report: the check stopped before a verdict. The outcome and
        // the trip gauges take its place (same schema as the daemon's
        // "result" reply).
        doc.set("outcome",
                json::Value(std::string(core::to_string(session.outcome()))));
        doc.set("trip", server::trip_to_json(*session.trip()));
      } else {
        doc.set("report", server::report_to_json(spec, report));
      }
      if (session.options().profile || session.trace() != nullptr) {
        // Observability armed: attach the kernel metrics snapshot.
        // Plain runs keep the pre-existing document schema.
        doc.set("metrics", session.metrics_snapshot().to_json());
      }
      std::puts(doc.dump().c_str());
    } else if (governed_stop) {
      const BudgetTrip& trip = *session.trip();
      std::printf(
          "check stopped before a verdict: %s\n"
          "  (%zu live nodes, %.3f s, %zu steps at the trip)\n",
          core::to_string(session.outcome()), trip.live_nodes,
          trip.elapsed_seconds, trip.steps);
    } else {
      std::fputs(report.summary(spec).c_str(), stdout);
    }
    if (governed_stop) return 3;

    if (explain && report.safe && report.consistent) {
      sg::StateGraph graph = sg::build_state_graph(spec);
      if (!graph.complete) {
        std::puts("(--explain skipped: net too large for the explicit engine)");
      } else {
        sg::PersistencyOptions popts;
        for (const auto& [a, b] : session.options().check.arbitration_pairs) {
          const stg::SignalId sa = spec.find_signal(a);
          const stg::SignalId sb = spec.find_signal(b);
          if (sa != stg::kNoSignal && sb != stg::kNoSignal) {
            popts.arbitration_pairs.push_back({sa, sb});
          }
        }
        for (const auto& w : sg::explain_persistency_violations(graph, popts)) {
          std::fputs(w.pretty(spec).c_str(), stdout);
        }
        for (const auto& w : sg::explain_csc_violations(graph)) {
          std::fputs(w.pretty(spec).c_str(), stdout);
        }
      }
    }

    if (equations && report.safe && report.consistent) {
      logic::LogicResult gates =
          logic::derive_logic(*report.encoding, report.traversal.reached);
      std::puts("\nComplex-gate netlist:");
      std::fputs(gates.netlist().c_str(), stdout);
    }

    const bool implementable =
        report.level == core::ImplementabilityLevel::kGateImplementable ||
        report.level == core::ImplementabilityLevel::kIoImplementable;
    return implementable ? 0 : 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
