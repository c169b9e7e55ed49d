// stg_checkd_client: a reference client for the stg_checkd daemon.
//
// Submits .g files over the daemon's AF_UNIX socket and relays every
// response line to stdout -- streamed event records included -- until the
// request completes. One file uses the "check" op; several (or --batch)
// use the "batch" op and wait for "batch_done".
//
//   usage: stg_checkd_client --socket <path> [options] [file.g ...]
//     --socket  PATH   daemon socket (required)
//     --ping           round-trip check instead of submitting nets
//     --status         print the daemon's status reply
//     --metrics        print the daemon's cumulative metrics snapshot,
//                      rendered as Prometheus-style text (the wire carries
//                      JSON; see util/metrics.hpp)
//     --session ID     with --status: one session's state + progress;
//                      with --metrics: one finished session's snapshot
//     --cancel  ID     cancel a queued/running session
//     --shutdown       ask the daemon to exit
//     --batch          force the batch op even for a single file
//     --quiet          print only result/batch_done/error lines, not the
//                      per-session event stream
//     plus every core::CheckConfig flag (--ordering, --strategy,
//     --engine, --schedule, --relation-templates, --arbitrate,
//     --initial-nodes, --max-live-nodes, --max-seconds, --max-steps) --
//     parsed by the unified config and forwarded as the wire "options"
//     object. --threads 1 is accepted and dropped: the BDD kernel is
//     sequential, and the daemon's worker count is stg_checkd --threads.
//
// Exit status: 0 on success, 1 on connection/protocol errors or any
// error reply.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "util/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

void usage() {
  std::fputs(
      "usage: stg_checkd_client --socket <path> [options] [file.g ...]\n"
      "  --socket  PATH   daemon socket (required)\n"
      "  --ping | --status | --metrics | --shutdown\n"
      "  --session ID     with --status/--metrics: one session\n"
      "  --cancel  ID     cancel a queued/running session\n"
      "  --batch          force the batch op for a single file\n"
      "  --quiet          suppress streamed event lines\n"
      "  --ordering O  --strategy S  --engine E  --schedule C\n"
      "  --relation-templates M  --arbitrate A,B\n"
      "  --initial-nodes N  --max-live-nodes N  --max-seconds S\n"
      "  --max-steps N\n",
      stderr);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw stgcheck::Error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int connect_to(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw stgcheck::Error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw stgcheck::Error("socket: " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw stgcheck::Error("connect " + socket_path + ": " + what);
  }
  return fd;
}

void send_line(int fd, std::string line) {
  line += '\n';
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off, 0);
    if (n <= 0) throw stgcheck::Error("send: " + std::string(std::strerror(errno)));
    off += static_cast<std::size_t>(n);
  }
}

/// Reads response lines until `done` says the request is complete.
/// Returns false if any error reply was seen. With `prometheus`, a
/// "metrics" reply prints as Prometheus text exposition instead of the
/// raw JSON line.
template <typename DonePredicate>
bool relay_until(int fd, bool quiet, DonePredicate done,
                 bool prometheus = false) {
  using stgcheck::json::Value;
  std::string buffer;
  char chunk[4096];
  bool ok = true;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      std::fputs("connection closed by daemon\n", stderr);
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (line.empty()) continue;
      Value reply;
      try {
        reply = Value::parse(line);
      } catch (const stgcheck::Error&) {
        std::fprintf(stderr, "unparseable reply: %s\n", line.c_str());
        return false;
      }
      const Value* kind = reply.find("reply");
      const bool is_error = kind != nullptr && kind->as_string() == "error";
      const bool is_event = reply.find("event") != nullptr;
      if (is_error) ok = false;
      const Value* snap_obj =
          prometheus && kind != nullptr && kind->as_string() == "metrics"
              ? reply.find("metrics")
              : nullptr;
      if (snap_obj != nullptr) {
        const auto snap =
            stgcheck::metrics::MetricsSnapshot::from_json(*snap_obj);
        std::fputs(snap.to_prometheus().c_str(), stdout);
      } else if (!quiet || !is_event) {
        std::puts(line.c_str());
        std::fflush(stdout);  // streamed: visible even through a pipe/file
      }
      if (done(reply)) return ok;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stgcheck;
  using json::Value;

  std::string socket_path;
  std::string op;          // empty = check/batch from files
  std::string session_id;  // --cancel target / --status --session filter
  bool force_batch = false;
  bool quiet = false;
  core::CheckConfig config;  // one parse path with stg_check and the wire
  std::vector<std::string> files;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next_arg = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        usage();
        std::exit(1);
      }
      return args[++i];
    };
    try {
      if (config.consume_flag(args, i)) continue;
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    if (arg == "--socket") {
      socket_path = next_arg();
    } else if (arg == "--ping" || arg == "--status" || arg == "--metrics" ||
               arg == "--shutdown") {
      op = arg.substr(2);
    } else if (arg == "--cancel") {
      op = "cancel";
      session_id = next_arg();
    } else if (arg == "--session") {
      session_id = next_arg();
    } else if (arg == "--batch") {
      force_batch = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return 1;
    } else {
      files.push_back(arg);
    }
  }
  if (socket_path.empty() || (op.empty() && files.empty())) {
    usage();
    return 1;
  }

  try {
    const int fd = connect_to(socket_path);
    bool ok;

    if (!op.empty()) {
      Value request = Value::object();
      request.set("op", Value(op));
      if (!session_id.empty()) request.set("session", Value(session_id));
      send_line(fd, request.dump());
      const std::string final_reply = op == "ping"      ? "pong"
                                      : op == "status"  ? "status"
                                      : op == "cancel"  ? "cancelled"
                                      : op == "metrics" ? "metrics"
                                                        : "bye";
      ok = relay_until(
          fd, quiet,
          [&](const Value& reply) {
            const Value* kind = reply.find("reply");
            return kind != nullptr && (kind->as_string() == final_reply ||
                                       kind->as_string() == "error");
          },
          /*prometheus=*/op == "metrics" && !quiet);
    } else if (files.size() > 1 || force_batch) {
      Value nets = Value::array();
      for (const std::string& path : files) {
        Value entry = Value::object();
        entry.set("id", Value(path));
        entry.set("net", Value(slurp(path)));
        nets.push_back(std::move(entry));
      }
      Value request = Value::object();
      request.set("op", Value("batch"));
      request.set("nets", std::move(nets));
      const Value options = config.to_json();
      if (!options.as_object().empty()) request.set("options", options);
      send_line(fd, request.dump());
      ok = relay_until(fd, quiet, [](const Value& reply) {
        const Value* kind = reply.find("reply");
        return kind != nullptr && kind->as_string() == "batch_done";
      });
    } else {
      Value request = Value::object();
      request.set("op", Value("check"));
      request.set("id", Value(files[0]));
      request.set("net", Value(slurp(files[0])));
      const Value options = config.to_json();
      if (!options.as_object().empty()) request.set("options", options);
      send_line(fd, request.dump());
      ok = relay_until(fd, quiet, [](const Value& reply) {
        const Value* kind = reply.find("reply");
        // A rejected net gets an error line and never a result.
        return kind != nullptr && (kind->as_string() == "result" ||
                                   kind->as_string() == "error");
      });
    }

    ::close(fd);
    return ok ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
