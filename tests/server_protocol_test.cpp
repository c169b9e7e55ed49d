// The check-server wire protocol, and the daemon's headline guarantee:
// many sessions multiplexed over one socket produce reports bit-identical
// to one-shot CheckSession runs. Runs the real CheckServer in-process on
// an AF_UNIX socket (unit label, so TSan covers the whole stack in CI).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "example_nets.hpp"
#include "server/check_server.hpp"
#include "server/protocol.hpp"
#include "stg/astg_io.hpp"
#include "stg/generators.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace stgcheck::server {
namespace {

using json::Value;

// ---- Request parsing -----------------------------------------------------

TEST(ServerProtocol, ParseControlOps) {
  EXPECT_EQ(parse_request(R"({"op":"ping"})").op, Request::Op::kPing);
  EXPECT_EQ(parse_request(R"({"op":"status"})").op, Request::Op::kStatus);
  EXPECT_EQ(parse_request(R"({"op":"shutdown"})").op, Request::Op::kShutdown);
  EXPECT_THROW(parse_request(R"({"op":"frobnicate"})"), ModelError);
  EXPECT_THROW(parse_request(R"({"noop":1})"), ModelError);
  EXPECT_THROW(parse_request("not json"), ParseError);
}

TEST(ServerProtocol, ParseCheckRequest) {
  const Request r = parse_request(
      R"({"op":"check","id":"net1","net":".model m\n.end\n",)"
      R"("options":{"ordering":"clustered","engine":"saturation"}})");
  EXPECT_EQ(r.op, Request::Op::kCheck);
  ASSERT_EQ(r.checks.size(), 1u);
  EXPECT_EQ(r.checks[0].id, "net1");
  EXPECT_EQ(r.checks[0].net_text, ".model m\n.end\n");
  EXPECT_EQ(r.checks[0].options.check.ordering, core::Ordering::kClustered);
  EXPECT_EQ(r.checks[0].options.check.engine,
            core::EngineKind::kSaturation);

  EXPECT_THROW(parse_request(R"({"op":"check","id":"x"})"), ModelError);
}

TEST(ServerProtocol, ParseBatchWithPerNetOverrides) {
  const Request r = parse_request(
      R"({"op":"batch","id":"b1","options":{"engine":"monolithic"},)"
      R"("nets":[{"id":"a","net":"..."},)"
      R"({"id":"b","net":"...","options":{"engine":"cofactor"}}]})");
  EXPECT_EQ(r.op, Request::Op::kBatch);
  EXPECT_EQ(r.batch_id, "b1");
  ASSERT_EQ(r.checks.size(), 2u);
  EXPECT_EQ(r.checks[0].options.check.engine,
            core::EngineKind::kMonolithicRelation);
  EXPECT_EQ(r.checks[1].options.check.engine, core::EngineKind::kCofactor);

  EXPECT_THROW(parse_request(R"({"op":"batch","id":"b"})"), ModelError);
}

TEST(ServerProtocol, SessionOptionsRejectUnknownKeysAndValues) {
  Value ok = Value::object();
  ok.set("ordering", Value("random"));
  ok.set("initial_nodes", Value(1024));
  const core::SessionOptions options = parse_session_options(ok);
  EXPECT_EQ(options.check.ordering, core::Ordering::kRandom);
  EXPECT_EQ(options.initial_nodes, 1024u);

  Value unknown_key = Value::object();
  unknown_key.set("speed", Value("ludicrous"));
  EXPECT_THROW(parse_session_options(unknown_key), ModelError);

  Value bad_value = Value::object();
  bad_value.set("strategy", Value("zigzag"));
  try {
    parse_session_options(bad_value);
    FAIL() << "expected ModelError";
  } catch (const ModelError& e) {
    // The error names the valid strategies, like the CLI does.
    EXPECT_NE(std::string(e.what()).find("chaining"), std::string::npos);
  }

  Value bad_nodes = Value::object();
  bad_nodes.set("initial_nodes", Value(2.5));
  EXPECT_THROW(parse_session_options(bad_nodes), ModelError);
}

TEST(ServerProtocol, VersionNegotiation) {
  // Unversioned and current-version requests parse; future versions are
  // rejected with the typed code so an old daemon fails loudly.
  EXPECT_EQ(parse_request(R"({"op":"ping","version":2})").op,
            Request::Op::kPing);
  EXPECT_EQ(parse_request(R"({"op":"ping","version":1})").op,
            Request::Op::kPing);
  try {
    parse_request(R"({"op":"ping","version":3})");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupportedVersion);
  }
  EXPECT_THROW(parse_request(R"({"op":"ping","version":0})"), ModelError);
  EXPECT_THROW(parse_request(R"({"op":"ping","version":1.5})"), ModelError);
}

TEST(ServerProtocol, ParseCancelAndSessionStatus) {
  const Request cancel = parse_request(R"({"op":"cancel","session":"s7"})");
  EXPECT_EQ(cancel.op, Request::Op::kCancel);
  EXPECT_EQ(cancel.session_id, "s7");
  EXPECT_THROW(parse_request(R"({"op":"cancel"})"), ModelError);

  EXPECT_EQ(parse_request(R"({"op":"status"})").session_id, "");
  EXPECT_EQ(parse_request(R"({"op":"status","session":"s7"})").session_id,
            "s7");
}

TEST(ServerProtocol, ErrorCodesAreStableWireNames) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnsupportedVersion,
        ErrorCode::kBadNet, ErrorCode::kDuplicateSession,
        ErrorCode::kUnknownSession, ErrorCode::kSessionFinished,
        ErrorCode::kSessionFailed}) {
    const auto parsed = parse_error_code(to_string(code));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(parse_error_code("not_a_code").has_value());

  const Value line =
      Value::parse(error_line(ErrorCode::kUnknownSession, "no such", "s1"));
  EXPECT_EQ(line.at("reply").as_string(), "error");
  EXPECT_EQ(line.at("code").as_string(), "unknown_session");
  EXPECT_EQ(line.at("session").as_string(), "s1");
  EXPECT_EQ(line.at("message").as_string(), "no such");
}

TEST(ServerProtocol, TripToJsonCarriesGauges) {
  BudgetTrip trip;
  trip.kind = LimitKind::kNodeCap;
  trip.live_nodes = 12345;
  trip.elapsed_seconds = 0.5;
  trip.steps = 7;
  const Value obj = trip_to_json(trip);
  EXPECT_EQ(obj.at("limit").as_string(), "node_cap");
  EXPECT_EQ(obj.at("live_nodes").as_number(), 12345.0);
  EXPECT_EQ(obj.at("elapsed_seconds").as_number(), 0.5);
  EXPECT_EQ(obj.at("steps").as_number(), 7.0);
}

TEST(ServerProtocol, ReportToJsonStatesTheEffectiveConfiguration) {
  core::SessionOptions options;
  options.check.engine = core::EngineKind::kCofactor;
  options.check.ordering = core::Ordering::kClustered;
  core::CheckSession session(stg::muller_pipeline(3), options);
  const Value config =
      report_to_json(session.stg(), session.run()).at("config");
  EXPECT_EQ(config.at("engine").as_string(), "cofactor");
  EXPECT_EQ(config.at("ordering").as_string(), "clustered");
  EXPECT_EQ(config.at("sift_runs").as_number(), 0.0);

  core::CheckSession plain(stg::muller_pipeline(3));
  EXPECT_EQ(report_to_json(plain.stg(), plain.run())
                .at("config")
                .at("engine")
                .as_string(),
            "saturation");
}

TEST(ServerProtocol, VerdictsSummaryAndJsonListTheSameViolations) {
  // The three renderings of one report: each list-carrying verdict event's
  // detail is its JSON list joined by "; ", and the summary shows every
  // entry in brackets.
  const std::pair<const char*, const char*> verdict_to_list[] = {
      {"consistent", "consistency"},  {"persistent", "persistency"},
      {"fake_free", "fake_conflicts"}, {"csc", "csc_conflicts"},
      {"csc_reducible", "irreducible"},
  };
  for (const stg::Stg& net :
       {stg::examples::fig3_d1(), stg::examples::fake_asymmetric(true),
        stg::examples::mutex2(), stg::examples::vme_read(),
        stg::examples::inconsistent_rise_rise(),
        stg::examples::unsafe_two_token_ring()}) {
    core::EventLog events;
    core::CheckOptions options;
    options.events = &events;
    const core::ImplementabilityReport report =
        core::check_implementability(net, options);
    const Value violations = report_to_json(net, report).at("violations");
    const std::string summary = report.summary(net);

    std::size_t entries = 0;
    for (const core::EventRecord& record : events.records()) {
      if (record.kind != core::EventKind::kVerdict) continue;
      for (const auto& [verdict, key] : verdict_to_list) {
        if (record.label != verdict) continue;
        std::vector<std::string> list;
        if (const Value* json = violations.find(key)) {
          for (const Value& v : json->as_array()) list.push_back(v.as_string());
        }
        EXPECT_EQ(record.detail, join(list, "; ")) << net.name() << " " << key;
        for (const std::string& entry : list) {
          const std::string suffix =
              std::string(key) == "irreducible"
                  ? ": mutually complementary input sequences]"
                  : "]";
          EXPECT_NE(summary.find("[" + entry + suffix), std::string::npos)
              << net.name() << " " << key << " " << entry << "\n"
              << summary;
        }
        entries += list.size();
      }
    }
    // The safeness failure has no list; every other net lists something.
    if (report.safe) EXPECT_GT(entries, 0u) << net.name();
  }
}

TEST(ServerProtocol, EventLineRoundTrips) {
  core::EventRecord record;
  record.kind = core::EventKind::kVerdict;
  record.at = 1.25;
  record.label = "csc";
  record.has_ok = true;
  record.ok = false;
  record.detail = "conflicts on: lds";
  record.metrics = {{"conflicts", 1}};

  const Value line = Value::parse(event_line("s42", record));
  EXPECT_EQ(line.at("session").as_string(), "s42");
  EXPECT_EQ(line.at("event").as_string(), "verdict");
  EXPECT_EQ(line.at("at").as_number(), 1.25);
  EXPECT_EQ(line.at("label").as_string(), "csc");
  EXPECT_FALSE(line.at("ok").as_bool());
  EXPECT_EQ(line.at("detail").as_string(), "conflicts on: lds");
  EXPECT_EQ(line.at("metrics").at("conflicts").as_number(), 1.0);

  // Informational records omit the verdict flag entirely.
  core::EventRecord info;
  info.kind = core::EventKind::kPass;
  EXPECT_EQ(Value::parse(event_line("s1", info)).find("ok"), nullptr);
}

// ---- The daemon against one-shot sessions --------------------------------

/// Blocking line reader over a connected socket, with a failsafe timeout so
/// a protocol bug fails the test instead of hanging it.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next line, or nullopt on EOF or when no data arrives for
  /// `timeout_ms`.
  std::optional<std::string> next(int timeout_ms = 120000) {
    for (;;) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return line;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) return std::nullopt;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

int connect_client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

void send_line(int fd, std::string line) {
  line += '\n';
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

std::string test_socket_path(const char* tag) {
  return "/tmp/stg_checkd_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// The comparable part of a report JSON: everything except wall-clock
/// times, dumped to one canonical string.
std::string report_fingerprint(const Value& report) {
  Value stripped = Value::object();
  for (const auto& [key, value] : report.as_object()) {
    if (key != "times") stripped.set(key, value);
  }
  return stripped.dump();
}

/// Sends `request` and returns its terminal reply (`result` for a check,
/// `batch_done` for a batch), skipping events and the replies before it;
/// an error reply fails the test and is returned.
Value run_to_end(int fd, LineReader& reader, const Value& request) {
  send_line(fd, request.dump());
  const std::string last =
      request.at("op").as_string() == "batch" ? "batch_done" : "result";
  while (const auto line = reader.next()) {
    Value reply = Value::parse(*line);
    if (reply.find("event") != nullptr) continue;
    const std::string kind = reply.at("reply").as_string();
    if (kind == "error") ADD_FAILURE() << *line;
    if (kind == last || kind == "error") return reply;
  }
  ADD_FAILURE() << "stream ended before " << last;
  return Value::object();
}

/// The reply to a per-session metrics request for `id`.
Value session_metrics(int fd, LineReader& reader, const std::string& id) {
  send_line(fd, R"({"op":"metrics","session":")" + id + R"("})");
  const auto line = reader.next();
  EXPECT_TRUE(line.has_value());
  return line.has_value() ? Value::parse(*line) : Value::object();
}

TEST(ServerDaemon, PingStatusAndShutdown) {
  ServerOptions options;
  options.socket_path = test_socket_path("ctl");
  options.threads = 2;
  CheckServer server(options);
  server.start();

  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);

  send_line(fd, R"({"op":"ping"})");
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("reply").as_string(), "pong");

  send_line(fd, R"({"op":"status"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  const Value status = Value::parse(*line);
  EXPECT_EQ(status.at("reply").as_string(), "status");
  EXPECT_EQ(status.at("threads").as_number(), 2.0);
  EXPECT_EQ(status.at("sessions").at("done").as_number(), 0.0);

  send_line(fd, "this is not json");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("reply").as_string(), "error");

  send_line(fd, R"({"op":"shutdown"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("reply").as_string(), "bye");

  ::close(fd);
  server.wait();  // returns because shutdown stopped the server
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(ServerDaemon, ConcurrentBatchMatchesOneShotOnAllExampleNets) {
  // Serial baseline: a fresh one-shot CheckSession per net. The nets take
  // the same .g round trip the daemon's nets do, so names and declaration
  // order are identical on both sides.
  std::vector<std::string> net_texts;
  std::vector<std::string> expected;
  for (int i = 0; i < testutil::kExampleNetCount; ++i) {
    net_texts.push_back(stg::write_astg_string(testutil::example_net(i)));
    core::CheckSession session(stg::parse_astg_string(net_texts.back()));
    const core::ImplementabilityReport& report = session.run();
    expected.push_back(
        report_fingerprint(report_to_json(session.stg(), report)));
  }

  ServerOptions options;
  options.socket_path = test_socket_path("batch");
  options.threads = 4;  // >= 4 concurrent sessions (the acceptance bar)
  CheckServer server(options);
  server.start();

  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);

  Value nets = Value::array();
  for (int i = 0; i < testutil::kExampleNetCount; ++i) {
    Value entry = Value::object();
    entry.set("id", "net" + std::to_string(i));
    entry.set("net", Value(net_texts[static_cast<std::size_t>(i)]));
    nets.push_back(std::move(entry));
  }
  Value request = Value::object();
  request.set("op", Value("batch"));
  request.set("id", Value("all-nets"));
  request.set("nets", std::move(nets));
  send_line(fd, request.dump());

  std::map<std::string, std::string> results;  // session id -> fingerprint
  std::size_t accepted = 0;
  std::size_t events = 0;
  for (;;) {
    const auto line = reader.next();
    ASSERT_TRUE(line.has_value()) << "stream ended before batch_done";
    const Value reply = Value::parse(*line);
    if (reply.find("event") != nullptr) {
      ++events;  // streamed records; content is covered by the unit tests
      continue;
    }
    const std::string kind = reply.at("reply").as_string();
    ASSERT_NE(kind, "error") << *line;
    if (kind == "accepted") {
      ++accepted;
    } else if (kind == "result") {
      ASSERT_EQ(reply.find("error"), nullptr) << *line;
      results[reply.at("session").as_string()] =
          report_fingerprint(reply.at("report"));
    } else if (kind == "batch_done") {
      EXPECT_EQ(reply.at("batch").as_string(), "all-nets");
      EXPECT_EQ(reply.at("sessions").as_number(),
                double(testutil::kExampleNetCount));
      break;
    }
  }

  EXPECT_EQ(accepted, std::size_t(testutil::kExampleNetCount));
  EXPECT_GT(events, std::size_t(testutil::kExampleNetCount));  // streaming on
  ASSERT_EQ(results.size(), std::size_t(testutil::kExampleNetCount));
  for (int i = 0; i < testutil::kExampleNetCount; ++i) {
    EXPECT_EQ(results.at("net" + std::to_string(i)),
              expected[static_cast<std::size_t>(i)])
        << "daemon result diverged from one-shot on net " << i;
  }

  send_line(fd, R"({"op":"shutdown"})");
  ::close(fd);
  server.wait();
}

TEST(ServerDaemon, RejectsDuplicateIdsAndBadNets) {
  ServerOptions options;
  options.socket_path = test_socket_path("dup");
  options.threads = 1;
  CheckServer server(options);
  server.start();

  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);

  const std::string net = stg::write_astg_string(testutil::example_net(0));

  // Malformed net text: an error line, never a result.
  Value bad = Value::object();
  bad.set("op", Value("check"));
  bad.set("id", Value("broken"));
  bad.set("net", Value("this is not a .g file"));
  send_line(fd, bad.dump());
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  Value reply = Value::parse(*line);
  EXPECT_EQ(reply.at("reply").as_string(), "error");
  EXPECT_EQ(reply.at("session").as_string(), "broken");

  // Same id twice in one batch: first accepted, second rejected, and the
  // batch still completes with exactly one session.
  Value nets = Value::array();
  for (int copy = 0; copy < 2; ++copy) {
    Value entry = Value::object();
    entry.set("id", Value("dup"));
    entry.set("net", Value(net));
    nets.push_back(std::move(entry));
  }
  Value request = Value::object();
  request.set("op", Value("batch"));
  request.set("id", Value("dups"));
  request.set("nets", std::move(nets));
  send_line(fd, request.dump());

  bool saw_duplicate_error = false;
  std::size_t results = 0;
  for (;;) {
    line = reader.next();
    ASSERT_TRUE(line.has_value());
    reply = Value::parse(*line);
    if (reply.find("event") != nullptr) continue;
    const std::string kind = reply.at("reply").as_string();
    if (kind == "error") saw_duplicate_error = true;
    if (kind == "result") ++results;
    if (kind == "batch_done") {
      EXPECT_EQ(reply.at("sessions").as_number(), 1.0);
      break;
    }
  }
  EXPECT_TRUE(saw_duplicate_error);
  EXPECT_EQ(results, 1u);

  ::close(fd);
  server.stop();
  server.wait();
}

TEST(ServerDaemon, VersionedRepliesAndErrorCodes) {
  ServerOptions options;
  options.socket_path = test_socket_path("ver");
  options.threads = 1;
  CheckServer server(options);
  server.start();

  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);

  // ping/status replies carry the server's version.
  send_line(fd, R"({"op":"ping","version":2})");
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  Value reply = Value::parse(*line);
  EXPECT_EQ(reply.at("reply").as_string(), "pong");
  EXPECT_EQ(reply.at("version").as_number(), double(kProtocolVersion));

  send_line(fd, R"({"op":"status"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("version").as_number(),
            double(kProtocolVersion));

  // A request from the future is refused with the typed code -- and the
  // connection stays usable.
  send_line(fd, R"({"op":"ping","version":99})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  reply = Value::parse(*line);
  EXPECT_EQ(reply.at("reply").as_string(), "error");
  EXPECT_EQ(reply.at("code").as_string(), "unsupported_version");

  send_line(fd, R"({"op":"frobnicate"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("code").as_string(), "bad_request");

  send_line(fd, R"({"op":"ping"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("reply").as_string(), "pong");

  ::close(fd);
  server.stop();
  server.wait();
}

TEST(ServerDaemon, RemovedConfigKeyIsAnErrorAndTheDaemonKeepsServing) {
  ServerOptions options;
  options.socket_path = test_socket_path("rmkey");
  options.threads = 1;
  CheckServer server(options);
  server.start();

  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);
  const std::string net = stg::write_astg_string(testutil::example_net(0));

  // The relation-template knob is gone: a check carrying its key is a
  // bad request naming the unknown option, never a session. (Split
  // literal: the removed name appears nowhere in the tree whole.)
  const std::string removed_key = "relation_" "templates";
  Value opts = Value::object();
  opts.set(removed_key, Value("on"));
  Value request = Value::object();
  request.set("op", Value("check"));
  request.set("id", Value("old-client"));
  request.set("net", Value(net));
  request.set("options", std::move(opts));
  send_line(fd, request.dump());
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  Value reply = Value::parse(*line);
  EXPECT_EQ(reply.at("reply").as_string(), "error");
  EXPECT_EQ(reply.at("code").as_string(), "bad_request");
  EXPECT_NE(reply.at("message").as_string().find("unknown option '" +
                                                  removed_key + "'"),
            std::string::npos)
      << *line;

  // The same connection still runs a check to its result and answers a
  // ping.
  Value good = Value::object();
  good.set("op", Value("check"));
  good.set("id", Value("new-client"));
  good.set("net", Value(net));
  EXPECT_EQ(run_to_end(fd, reader, good).at("session").as_string(),
            "new-client");
  send_line(fd, R"({"op":"ping"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("reply").as_string(), "pong");

  ::close(fd);
  server.stop();
  server.wait();
}

TEST(ServerDaemon, UnknownArbitrationSignalIsAFailedCheck) {
  ServerOptions options;
  options.socket_path = test_socket_path("arbitrate");
  options.threads = 1;
  CheckServer server(options);
  server.start();

  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);
  Value pair = Value::array();
  pair.push_back(Value("g1"));
  pair.push_back(Value("gX"));
  Value arbitrate = Value::array();
  arbitrate.push_back(std::move(pair));
  Value opts = Value::object();
  opts.set("arbitrate", std::move(arbitrate));
  Value request = Value::object();
  request.set("op", Value("check"));
  request.set("id", Value("typo"));
  request.set("net", Value(stg::write_astg_string(stg::examples::mutex2())));
  request.set("options", std::move(opts));
  const Value result = run_to_end(fd, reader, request);
  EXPECT_EQ(result.at("code").as_string(), "session_failed");
  EXPECT_NE(result.at("error").as_string().find("'gX'"), std::string::npos);
  EXPECT_EQ(result.find("report"), nullptr);

  ::close(fd);
  server.stop();
  server.wait();
}

TEST(ServerDaemon, NodeBudgetExhaustionFreesSlotAndKeepsServing) {
  // The acceptance path: a check with a tiny node budget answers a typed
  // resource_exhausted result (no crash, no report), its slot frees, and
  // the same connection immediately runs a normal check to completion.
  ServerOptions options;
  options.socket_path = test_socket_path("budget");
  options.threads = 1;
  CheckServer server(options);
  server.start();

  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);

  const std::string net = stg::write_astg_string(testutil::example_net(3));

  Value governed = Value::object();
  governed.set("op", Value("check"));
  governed.set("id", Value("capped"));
  governed.set("net", Value(net));
  Value opts = Value::object();
  opts.set("max_live_nodes", Value(64));
  governed.set("options", std::move(opts));
  send_line(fd, governed.dump());

  bool saw_exhausted_event = false;
  for (;;) {
    const auto line = reader.next();
    ASSERT_TRUE(line.has_value()) << "stream ended before result";
    const Value reply = Value::parse(*line);
    if (const Value* event = reply.find("event")) {
      if (event->as_string() == "resource_exhausted") {
        saw_exhausted_event = true;
        EXPECT_EQ(reply.at("label").as_string(), "node_cap");
      }
      continue;
    }
    ASSERT_EQ(reply.at("reply").as_string() == "error", false) << *line;
    if (reply.at("reply").as_string() == "accepted") continue;
    ASSERT_EQ(reply.at("reply").as_string(), "result");
    EXPECT_EQ(reply.at("outcome").as_string(), "resource_exhausted");
    EXPECT_EQ(reply.find("report"), nullptr);
    EXPECT_EQ(reply.at("trip").at("limit").as_string(), "node_cap");
    EXPECT_GT(reply.at("trip").at("live_nodes").as_number(), 64.0);
    break;
  }
  EXPECT_TRUE(saw_exhausted_event);

  // Same connection, no limits: a full report, identical to one-shot.
  core::CheckSession oneshot(stg::parse_astg_string(net));
  const std::string expected =
      report_fingerprint(report_to_json(oneshot.stg(), oneshot.run()));

  Value normal = Value::object();
  normal.set("op", Value("check"));
  normal.set("id", Value("free"));
  normal.set("net", Value(net));
  EXPECT_EQ(report_fingerprint(run_to_end(fd, reader, normal).at("report")),
            expected);

  // The bookkeeping saw both endings.
  send_line(fd, R"({"op":"status"})");
  const auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  const Value status = Value::parse(*line);
  EXPECT_EQ(status.at("sessions").at("exhausted").as_number(), 1.0);
  EXPECT_EQ(status.at("sessions").at("done").as_number(), 1.0);

  ::close(fd);
  server.stop();
  server.wait();
}

TEST(ServerDaemon, CancelAndPerSessionStatusLifecycle) {
  ServerOptions options;
  options.socket_path = test_socket_path("cancel");
  options.threads = 1;
  CheckServer server(options);
  server.start();

  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);

  // Unknown ids answer distinctly from finished ones.
  send_line(fd, R"({"op":"status","session":"ghost"})");
  auto line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("code").as_string(), "unknown_session");

  send_line(fd, R"({"op":"cancel","session":"ghost"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("code").as_string(), "unknown_session");

  // Run one check to completion...
  const std::string net = stg::write_astg_string(testutil::example_net(0));
  Value check = Value::object();
  check.set("op", Value("check"));
  check.set("id", Value("c1"));
  check.set("net", Value(net));
  EXPECT_NE(run_to_end(fd, reader, check).find("report"), nullptr);

  // ...then the finished-session ring answers status (finished, with its
  // terminal state) and refuses cancel with the typed code.
  send_line(fd, R"({"op":"status","session":"c1"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  const Value finished = Value::parse(*line);
  EXPECT_EQ(finished.at("reply").as_string(), "status");
  EXPECT_EQ(finished.at("session").as_string(), "c1");
  EXPECT_TRUE(finished.at("finished").as_bool());
  EXPECT_EQ(finished.at("state").as_string(), "done");

  send_line(fd, R"({"op":"cancel","session":"c1"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(Value::parse(*line).at("code").as_string(), "session_finished");

  // Cancel racing a live session: whichever side wins, the shapes agree.
  // Either the cancel lands (reply "cancelled", result carries the
  // governed outcome) or the session finished first (typed
  // session_finished error, result carries a report).
  Value racy = Value::object();
  racy.set("op", Value("check"));
  racy.set("id", Value("c2"));
  racy.set("net", Value(stg::write_astg_string(testutil::example_net(1))));
  send_line(fd, racy.dump());
  send_line(fd, R"({"op":"cancel","session":"c2"})");

  std::optional<std::string> cancel_shape;  // "cancelled" or "finished"
  std::optional<std::string> result_shape;  // "report" or "cancelled"
  while (!cancel_shape.has_value() || !result_shape.has_value()) {
    line = reader.next();
    ASSERT_TRUE(line.has_value());
    const Value reply = Value::parse(*line);
    if (reply.find("event") != nullptr) continue;
    const std::string kind = reply.at("reply").as_string();
    if (kind == "accepted") continue;
    if (kind == "cancelled") {
      cancel_shape = "cancelled";
    } else if (kind == "error") {
      EXPECT_EQ(reply.at("code").as_string(), "session_finished");
      cancel_shape = "finished";
    } else {
      ASSERT_EQ(kind, "result");
      if (reply.find("report") != nullptr) {
        result_shape = "report";
      } else {
        EXPECT_EQ(reply.at("outcome").as_string(), "cancelled");
        EXPECT_EQ(reply.at("trip").at("limit").as_string(), "cancelled");
        result_shape = "cancelled";
      }
    }
  }
  // A cancel acknowledged before the run finished may still lose the last
  // race to the final safe point, so "cancelled"+"report" is legal; but a
  // governed result is only possible when the cancel was acknowledged.
  if (*result_shape == "cancelled") EXPECT_EQ(*cancel_shape, "cancelled");

  // Whatever the outcome, the slot freed and the daemon keeps serving.
  send_line(fd, R"({"op":"status","session":"c2"})");
  line = reader.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(Value::parse(*line).at("finished").as_bool());

  ::close(fd);
  server.stop();
  server.wait();
}

TEST(ServerDaemon, PerSessionMetricsAnswerFromTheFinishedRing) {
  ServerOptions options;
  options.socket_path = test_socket_path("ring");
  options.threads = 1;
  CheckServer server(options);
  server.start();
  const int fd = connect_client(options.socket_path);
  LineReader reader(fd);
  const std::string net = stg::write_astg_string(testutil::example_net(0));
  const auto entry = [&](const std::string& id) {
    Value e = Value::object();
    e.set("id", Value(id));
    e.set("net", Value(net));
    return e;
  };
  const auto check = [&](const std::string& id, const char* engine) {
    Value request = entry(id);
    request.set("op", Value("check"));
    Value opts = Value::object();
    opts.set("engine", Value(engine));
    request.set("options", std::move(opts));
    return request;
  };
  const auto reach_calls = [](const Value& reply) {
    return reply.at("metrics").at("counters").at("op_calls_reach").as_number();
  };

  // A finished session's snapshot answers after finish()...
  run_to_end(fd, reader, check("m1", "cofactor"));
  Value reply = session_metrics(fd, reader, "m1");
  ASSERT_EQ(reply.at("reply").as_string(), "metrics") << reply.dump();
  EXPECT_EQ(reply.at("session").as_string(), "m1");
  EXPECT_EQ(reach_calls(reply), 0.0);
  // ...a reused id answers for its new run (saturation calls REACH)...
  run_to_end(fd, reader, check("m1", "saturation"));
  reply = session_metrics(fd, reader, "m1");
  ASSERT_EQ(reply.at("reply").as_string(), "metrics") << reply.dump();
  EXPECT_GE(reach_calls(reply), 1.0);

  // ...and a full ring of later sessions pushes it off.
  Value nets = Value::array();
  for (std::size_t i = 0; i < SessionRegistry::kFinishedRingSize; ++i) {
    nets.push_back(entry("fill" + std::to_string(i)));
  }
  Value batch = Value::object();
  batch.set("op", Value("batch"));
  batch.set("nets", std::move(nets));
  run_to_end(fd, reader, batch);
  EXPECT_EQ(session_metrics(fd, reader, "m1").at("code").as_string(),
            "unknown_session");
  EXPECT_EQ(session_metrics(fd, reader, "fill0").at("reply").as_string(),
            "metrics");

  ::close(fd);
  server.stop();
  server.wait();
}

TEST(ServerDaemon, SmallCheckIsNotQueuedBehindALongBatchNet) {
  // Head-of-line regression over the wire: with two workers, a small
  // check sent while a long batch net runs must get its result while
  // that net is still running, not after it.
  ServerOptions options;
  options.socket_path = test_socket_path("hol");
  options.threads = 2;
  CheckServer server(options);
  server.start();

  const int fd_a = connect_client(options.socket_path);
  const int fd_b = connect_client(options.socket_path);
  LineReader reader_a(fd_a);
  LineReader reader_b(fd_b);

  // Connection A: a batch holding one long net. muller64 under the
  // cofactor engine runs for seconds (the default, saturation, finishes
  // it in milliseconds); it is cancelled below.
  Value slow = Value::object();
  slow.set("id", Value("slow"));
  slow.set("net", Value(stg::write_astg_string(
                      stg::make_family_instance("muller64"))));
  Value slow_options = Value::object();
  slow_options.set("engine", Value("cofactor"));
  slow.set("options", std::move(slow_options));
  Value nets = Value::array();
  nets.push_back(std::move(slow));
  Value batch = Value::object();
  batch.set("op", Value("batch"));
  batch.set("nets", std::move(nets));
  send_line(fd_a, batch.dump());
  for (;;) {
    const auto line = reader_a.next();
    ASSERT_TRUE(line.has_value());
    const Value reply = Value::parse(*line);
    const Value* event = reply.find("event");
    if (event != nullptr && event->as_string() == "session_start") break;
  }

  // Connection B: a small check. The read is bounded well below the long
  // net's run time, so a scheduler that queues B behind A fails here
  // instead of hanging.
  Value check = Value::object();
  check.set("op", Value("check"));
  check.set("id", Value("small"));
  check.set("net", Value(stg::write_astg_string(testutil::example_net(0))));
  send_line(fd_b, check.dump());
  bool small_done = false;
  for (;;) {
    const auto line = reader_b.next(/*timeout_ms=*/30000);
    if (!line.has_value()) break;
    const Value reply = Value::parse(*line);
    if (reply.find("event") != nullptr) continue;
    if (reply.at("reply").as_string() == "accepted") continue;
    ASSERT_EQ(reply.at("reply").as_string(), "result");
    EXPECT_NE(reply.find("report"), nullptr);
    small_done = true;
    break;
  }
  EXPECT_TRUE(small_done) << "the small check waited behind the long net";

  // The long net is still running; cancel it and expect the governed
  // result, then the batch's completion.
  send_line(fd_a, R"({"op":"status","session":"slow"})");
  send_line(fd_a, R"({"op":"cancel","session":"slow"})");
  bool saw_status = false;
  bool saw_cancel_ack = false;
  bool saw_result = false;
  for (;;) {
    const auto line = reader_a.next();
    ASSERT_TRUE(line.has_value());
    const Value reply = Value::parse(*line);
    if (reply.find("event") != nullptr) continue;
    const std::string kind = reply.at("reply").as_string();
    if (kind == "status") {
      EXPECT_EQ(reply.at("state").as_string(), "running");
      saw_status = true;
    } else if (kind == "cancelled") {
      saw_cancel_ack = true;
    } else if (kind == "result") {
      EXPECT_EQ(reply.at("session").as_string(), "slow");
      EXPECT_EQ(reply.find("report"), nullptr);
      EXPECT_EQ(reply.at("outcome").as_string(), "cancelled");
      saw_result = true;
    } else {
      ASSERT_EQ(kind, "batch_done");
      break;
    }
  }
  EXPECT_TRUE(saw_status);
  EXPECT_TRUE(saw_cancel_ack);
  EXPECT_TRUE(saw_result);

  ::close(fd_a);
  ::close(fd_b);
  server.stop();
  server.wait();
}

}  // namespace
}  // namespace stgcheck::server
