// stg_perfbench: the in-process executor of the end-to-end benchmark.
//
// Reads one plan (JSON, path given as the only argument), generates the
// instance texts, then runs whole rounds of checks until the time budget
// would be exceeded by another round. Between checks, after every
// calib_every_s seconds, it takes one calibration slice (calib.hpp). Prints
// one JSON line per check and one summary line at the end; run.py
// aggregates them.
//
// Plan:
//   {"seconds": 30, "trace": 0, "setup_reps": 9, "calib_every_s": 0.1,
//    "instances": [{"name":"muller8","family":"muller","n":8,
//                   "options":{<core::CheckConfig wire object>}}, ...],
//    "rounds": [[0,3,1,...], ...]}   // instance indices, seeded by run.py
// or {"serve_calibration": true}: calibration slices on request only, for
// the daemon workload (see serve_calibration).
//
// Untraced checks take exactly the path stg_check takes:
// parse_astg_string -> CheckSession::run -> report_to_json.
//
// Traced checks run that path untraced as the reference, then a replica of
// check_implementability made of the public calls of each layer, with a
// span around every call and Manager::stats()/profile() deltas read around
// it (profiling armed). The replica must reach the reference's verdict,
// state count and peak, or the run fails: the per-layer numbers can never
// drift from the end-to-end path unnoticed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hpp"
#include "core/checks.hpp"
#include "core/config.hpp"
#include "core/encoding.hpp"
#include "core/image_engine.hpp"
#include "core/implementability.hpp"
#include "core/session.hpp"
#include "core/traversal.hpp"
#include "petri/structural.hpp"
#include "server/protocol.hpp"
#include "stg/astg_io.hpp"
#include "stg/generators.hpp"
#include "util/json.hpp"

namespace {

using namespace stgcheck;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

stg::Stg generate(const std::string& family, std::size_t n) {
  if (family == "muller") return stg::muller_pipeline(n);
  if (family == "mread") return stg::master_read(n);
  if (family == "mutex") return stg::mutex_arbiter(n);
  if (family == "select") return stg::select_chain(n);
  throw ModelError("unknown family '" + family + "'");
}

struct Instance {
  std::string name;
  std::string family;
  std::size_t n = 0;
  core::CheckConfig config;
  std::string text;  // filled by the set-up phase
};

/// What both pipelines must agree on, plus the reference's wall time.
struct Outcome {
  std::string level;
  double states = 0;
  double markings = 0;
  std::size_t peak = 0;
  double seconds = 0;
  std::size_t events = 0;
  double run_s = 0;    // CheckSession::run alone
  double check_s = 0;  // check_implementability inside it (times.total)
};

/// The end-to-end path, as stg_check runs it.
Outcome check_untraced(const Instance& inst) {
  const auto t0 = Clock::now();
  stg::Stg stg = stg::parse_astg_string(inst.text);
  core::CheckSession session(std::move(stg), inst.config);
  const auto r0 = Clock::now();
  const core::ImplementabilityReport& report = session.run();
  const double run_s = since(r0);
  if (session.outcome() != core::SessionOutcome::kCompleted) {
    throw ModelError(std::string("session ended ") +
                     core::to_string(session.outcome()));
  }
  const std::string rendered =
      server::report_to_json(session.stg(), report).dump();
  Outcome out;
  out.seconds = since(t0);
  out.run_s = run_s;
  out.check_s = report.times.total;
  out.level = core::to_string(report.level);
  out.states = report.traversal.stats.states;
  out.markings = report.traversal.stats.markings;
  out.peak = session.encoding()->manager().peak_live_nodes();
  out.events = session.events().records().size();
  if (rendered.empty()) throw ModelError("empty report");
  return out;
}

// ---------------------------------------------------------------------------
// Traced replica
// ---------------------------------------------------------------------------

/// Per-layer accumulator: named values, summed over the spans of a check.
using Layers = std::map<std::string, double>;

/// Manager counters at one instant; deltas between two give what a call
/// did inside the kernel.
struct KernelSnap {
  bdd::ManagerProfile prof;
  bdd::ManagerStats stats;
};

KernelSnap snap(const bdd::Manager& m) { return {m.profile(), m.stats()}; }

/// Adds the kernel deltas between `a` and `b` to `layers` under "bdd.*".
void add_kernel_delta(Layers& layers, const KernelSnap& a, const KernelSnap& b) {
  for (std::size_t k = 0; k < bdd::kOpKindCount; ++k) {
    const std::string kind = bdd::to_string(static_cast<bdd::OpKind>(k));
    layers["bdd.op_calls." + kind] +=
        static_cast<double>(b.prof.ops[k].calls - a.prof.ops[k].calls);
    layers["bdd.op_s." + kind] += b.prof.ops[k].seconds - a.prof.ops[k].seconds;
  }
  const auto d = [](std::size_t x, std::size_t y) {
    return static_cast<double>(y - x);
  };
  layers["bdd.gc_runs"] += d(a.prof.gc_runs, b.prof.gc_runs);
  layers["bdd.gc_s"] += b.prof.gc_seconds - a.prof.gc_seconds;
  layers["bdd.sift_runs"] += d(a.prof.sift_runs, b.prof.sift_runs);
  layers["bdd.sift_s"] += b.prof.sift_seconds - a.prof.sift_seconds;
  layers["bdd.cache_lookups"] += d(a.stats.cache_lookups, b.stats.cache_lookups);
  layers["bdd.unique_hits"] += d(a.stats.unique_hits, b.stats.unique_hits);
  layers["bdd.binary_lookups"] +=
      d(a.stats.binary_cache_lookups, b.stats.binary_cache_lookups);
  layers["bdd.binary_hits"] +=
      d(a.stats.binary_cache_hits, b.stats.binary_cache_hits);
  layers["bdd.reach_lookups"] +=
      d(a.stats.reach_cache_lookups, b.stats.reach_cache_lookups);
  layers["bdd.reach_hits"] += d(a.stats.reach_cache_hits, b.stats.reach_cache_hits);
  layers["bdd.permute_lookups"] +=
      d(a.stats.permute_cache_lookups, b.stats.permute_cache_lookups);
  layers["bdd.permute_hits"] +=
      d(a.stats.permute_cache_hits, b.stats.permute_cache_hits);
}

/// Times `fn` as the span `name` ("<name>_s" in `layers`) and, when a
/// manager is live, adds its kernel deltas.
template <typename Fn>
void span(Layers& layers, const std::string& name, const bdd::Manager* m,
          Fn&& fn) {
  KernelSnap before;
  if (m != nullptr) before = snap(*m);
  const auto t0 = Clock::now();
  fn();
  layers[name + "_s"] += since(t0);
  if (m != nullptr) add_kernel_delta(layers, before, snap(*m));
}

/// check_implementability, rebuilt from the public calls of each layer.
/// Keep in step with core/implementability.cpp: the guard in main() fails
/// the run when the two disagree.
Outcome check_traced(const Instance& inst, Layers& layers) {
  const core::CheckOptions& opt = inst.config.check;
  const auto t0 = Clock::now();
  std::unique_ptr<stg::Stg> stg;
  span(layers, "stg.parse", nullptr,
       [&] { stg = std::make_unique<stg::Stg>(stg::parse_astg_string(inst.text)); });

  std::unique_ptr<core::SymbolicStg> sym;
  span(layers, "encoding.build", nullptr, [&] {
    sym = std::make_unique<core::SymbolicStg>(
        *stg, opt.ordering, inst.config.initial_nodes,
        opt.engine != core::EngineKind::kCofactor);
  });
  bdd::Manager& m = sym->manager();
  m.set_profiling(true);
  m.reset_peak_stats();
  layers["encoding.vars"] += static_cast<double>(m.var_count());

  core::ImplementabilityReport report;
  std::unique_ptr<core::ImageEngine> engine;
  span(layers, "engine.build", &m,
       [&] { engine = core::make_engine(opt.engine, *sym, opt.engine_options); });
  layers["engine.relation_nodes"] +=
      static_cast<double>(engine->stats().relation_nodes);

  const std::size_t images_before = engine->stats().image_calls;
  span(layers, "traversal", &m, [&] {
    core::TraversalOptions topt;
    topt.strategy = opt.strategy;
    topt.engine = opt.engine;
    topt.engine_options = opt.engine_options;
    report.traversal = core::traverse(*engine, topt);
  });
  const core::TraversalStats& ts = report.traversal.stats;
  layers["traversal.passes"] += static_cast<double>(ts.passes);
  layers["traversal.image_calls"] +=
      static_cast<double>(engine->stats().image_calls - images_before);
  layers["traversal.peak_reached_nodes"] +=
      static_cast<double>(ts.peak_reached_nodes);
  report.safe = report.traversal.safe;
  report.consistent = report.traversal.consistent;

  const std::uint64_t rel_next_before =
      m.profile().op(bdd::OpKind::kRelNext).calls;
  if (report.traversal.ok()) {
    const bdd::Bdd& reached = report.traversal.reached;
    span(layers, "checks.deadlock", &m, [&] {
      report.deadlock_states_count =
          sym->count_states(core::deadlock_states(*sym, reached));
    });
    report.deadlock_free = report.deadlock_states_count == 0;

    span(layers, "checks.persistency", &m, [&] {
      if (opt.exploit_marked_graphs && pn::conflict_places(stg->net()).empty()) {
        return;
      }
      core::SymPersistencyOptions popts;
      for (const auto& [n1, n2] : opt.arbitration_pairs) {
        const stg::SignalId s1 = stg->find_signal(n1);
        const stg::SignalId s2 = stg->find_signal(n2);
        if (s1 != stg::kNoSignal && s2 != stg::kNoSignal) {
          popts.arbitration_pairs.push_back({s1, s2});
        }
      }
      report.persistency_violations =
          core::signal_persistency(*engine, reached, popts);
      report.transition_conflicts = core::transition_persistency(*engine, reached);
    });
    report.signal_persistent = report.persistency_violations.empty();

    span(layers, "checks.commutativity", &m, [&] {
      report.deterministic = core::determinism_violations(*sym, reached).is_false();
      report.fake_freedom = core::check_fake_freedom(*engine, reached);
    });
    report.fake_free = report.fake_freedom.fake_free;

    span(layers, "checks.csc", &m, [&] {
      report.csc_result = core::check_csc(*sym, reached);
      report.usc = report.csc_result.unique_state_coding;
      report.csc = report.csc_result.complete_state_coding;
      report.csc_reducible = report.csc;
      if (!report.csc) {
        report.reducibility = core::check_csc_reducibility(*engine, reached);
        report.csc_reducible = report.reducibility.reducible;
      }
    });

    const bool core_ok = report.safe && report.consistent &&
                         report.signal_persistent && report.deterministic &&
                         report.fake_free;
    using L = core::ImplementabilityLevel;
    report.level = core_ok && report.csc             ? L::kGateImplementable
                   : core_ok && report.csc_reducible ? L::kIoImplementable
                   : report.signal_persistent        ? L::kSiImplementable
                                                     : L::kNotImplementable;
  }
  layers["checks.rel_next_calls"] += static_cast<double>(
      m.profile().op(bdd::OpKind::kRelNext).calls - rel_next_before);

  Outcome out;
  out.peak = m.peak_live_nodes();
  layers["bdd.peak_live_nodes"] += static_cast<double>(out.peak);
  std::string rendered;
  span(layers, "report.render", nullptr,
       [&] { rendered = server::report_to_json(*stg, report).dump(); });
  out.seconds = since(t0);
  out.level = core::to_string(report.level);
  out.states = ts.states;
  out.markings = ts.markings;
  if (rendered.empty()) throw ModelError("empty report");
  return out;
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("cannot read plan " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

json::Value outcome_json(std::size_t index, std::size_t round, const Outcome& o) {
  json::Value v = json::Value::object();
  v.set("i", json::Value(index));
  v.set("round", json::Value(round));
  v.set("s", json::Value(o.seconds));
  v.set("level", json::Value(o.level));
  v.set("states", json::Value(o.states));
  v.set("markings", json::Value(o.markings));
  v.set("peak", json::Value(o.peak));
  return v;
}

/// Seconds on the monotonic clock, which Python's time.monotonic() reads
/// too, so run.py can match check and request times to slices.
double stamp(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// Calibration slices: one fixed calibrator solve each (calib.hpp), as
/// [start, seconds]. run.py scales check times by the slices around them.
class Calibrator {
 public:
  /// One untimed solve first, so the timed one finds its tables in cache
  /// whatever the check before it left there.
  void slice() {
    solve();
    const auto c0 = Clock::now();
    solve();
    json::Value s = json::Value::array();
    s.push_back(json::Value(stamp(c0)));
    s.push_back(json::Value(since(c0)));
    slices_.push_back(std::move(s));
    last_ = Clock::now();
  }

  double since_last() const { return since(last_); }
  json::Value take() {
    json::Value out = std::move(slices_);
    slices_ = json::Value::array();
    return out;
  }

 private:
  static constexpr unsigned kQueens = 8;
  static constexpr std::size_t kQueensNodes = 60695;  // terminals included

  void solve() {
    if (perfbench::queens(bdd_, kQueens) != kQueensNodes) {
      throw ModelError("calibrator built the wrong N-queens BDD");
    }
  }
  Clock::time_point last_ = Clock::now();
  perfbench::MiniBdd bdd_{20};
  json::Value slices_ = json::Value::array();
};

/// Calibration on request, for a load that runs in another process: each
/// line of standard input asks for that many slices and is answered with one
/// line of [start, seconds] pairs. Ends at the end of the input.
int serve_calibration() {
  Calibrator calib;
  std::string line;
  while (std::getline(std::cin, line)) {
    for (int k = std::stoi(line); k > 0; --k) calib.slice();
    std::printf("%s\n", calib.take().dump().c_str());
    std::fflush(stdout);
  }
  return 0;
}

int run(const json::Value& plan) {
  if (const json::Value* serve = plan.find("serve_calibration");
      serve != nullptr && serve->as_bool()) {
    return serve_calibration();
  }
  const double calib_every = plan.at("calib_every_s").as_number();
  const double budget = plan.at("seconds").as_number();
  const bool traced = plan.at("trace").as_number() != 0;
  const auto setup_reps =
      static_cast<std::size_t>(plan.at("setup_reps").as_number());

  std::vector<Instance> instances;
  for (const json::Value& spec : plan.at("instances").as_array()) {
    Instance inst;
    inst.name = spec.at("name").as_string();
    inst.family = spec.at("family").as_string();
    inst.n = static_cast<std::size_t>(spec.at("n").as_number());
    inst.config = core::CheckConfig::from_json(spec.at("options"));
    instances.push_back(std::move(inst));
  }

  // Calibration slices, taken before the set-up and between checks
  // throughout the run.
  Calibrator calib;
  calib.slice();

  // Set-up: generate every instance text, several times, each as
  // [start, seconds]; run.py reports the median.
  json::Value setup = json::Value::array();
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = Clock::now();
    for (Instance& inst : instances) {
      inst.text = stg::write_astg_string(generate(inst.family, inst.n));
    }
    json::Value s = json::Value::array();
    s.push_back(json::Value(stamp(t0)));
    s.push_back(json::Value(since(t0)));
    setup.push_back(std::move(s));
  }
  if (const json::Value* emit = plan.find("emit_texts"); emit && emit->as_bool()) {
    for (const Instance& inst : instances) {
      json::Value line = json::Value::object();
      line.set("name", json::Value(inst.name));
      line.set("net", json::Value(inst.text));
      std::printf("%s\n", line.dump().c_str());
    }
  }

  const auto start = Clock::now();
  calib.slice();

  double longest_round = 0;
  std::size_t round = 0;
  for (const json::Value& order : plan.at("rounds").as_array()) {
    if (round > 0 && since(start) + longest_round > budget) break;
    const auto r0 = Clock::now();
    for (const json::Value& idx : order.as_array()) {
      const auto i = static_cast<std::size_t>(idx.as_number());
      const Instance& inst = instances.at(i);
      json::Value line;
      const double t = stamp(Clock::now());
      try {
        const Outcome ref = check_untraced(inst);
        line = outcome_json(i, round, ref);
        line.set("t", json::Value(t));
        if (traced) {
          Layers layers;
          const Outcome rep = check_traced(inst, layers);
          if (rep.level != ref.level || rep.states != ref.states ||
              rep.peak != ref.peak) {
            std::fprintf(stderr,
                         "replica guard: %s replica (%s, %.17g states, peak "
                         "%zu) != session (%s, %.17g states, peak %zu)\n",
                         inst.name.c_str(), rep.level.c_str(), rep.states,
                         rep.peak, ref.level.c_str(), ref.states, ref.peak);
            return 3;
          }
          layers["session.run_s"] = ref.run_s;
          layers["session.check_s"] = ref.check_s;
          layers["ref_wall_s"] = ref.seconds;
          layers["session.events"] = static_cast<double>(ref.events);
          layers["wall_s"] = rep.seconds;
          json::Value lv = json::Value::object();
          for (const auto& [k, v] : layers) lv.set(k, json::Value(v));
          line.set("layers", std::move(lv));
        }
      } catch (const std::exception& e) {
        line = json::Value::object();
        line.set("i", json::Value(i));
        line.set("round", json::Value(round));
        line.set("error", json::Value(std::string(e.what())));
      }
      std::printf("%s\n", line.dump().c_str());
      if (calib.since_last() >= calib_every) calib.slice();
    }
    std::fflush(stdout);
    longest_round = std::max(longest_round, since(r0));
    ++round;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  json::Value summary = json::Value::object();
  summary.set("setup_s", std::move(setup));
  summary.set("calib_s", calib.take());
  summary.set("rounds", json::Value(round));
  summary.set("measured_s", json::Value(since(start)));
  summary.set("max_rss_kb", json::Value(static_cast<long>(usage.ru_maxrss)));
  std::printf("%s\n", summary.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fputs("usage: stg_perfbench PLAN.json\n", stderr);
    return 1;
  }
  try {
    return run(stgcheck::json::Value::parse(read_file(argv[1])));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stg_perfbench: %s\n", e.what());
    return 1;
  }
}
