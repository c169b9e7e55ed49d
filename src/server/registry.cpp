#include "server/registry.hpp"

#include "util/json.hpp"

namespace stgcheck::server {

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kQueued: return "queued";
    case SessionState::kRunning: return "running";
    case SessionState::kDone: return "done";
    case SessionState::kFailed: return "failed";
    case SessionState::kCancelled: return "cancelled";
    case SessionState::kExhausted: return "exhausted";
  }
  return "?";
}

std::string SessionRegistry::unique_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (;;) {
    std::string id = "s";
    id += std::to_string(++next_id_);
    if (entries_.find(id) == entries_.end() &&
        find_finished_locked(id) == nullptr) {
      return id;
    }
  }
}

core::CheckSession* SessionRegistry::add(
    const std::string& id, std::unique_ptr<core::CheckSession> session,
    std::shared_ptr<CancelToken> token) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = entries_.try_emplace(id);
  if (!inserted) return nullptr;
  // Reusing a finished id is legal (clients key sessions by file path and
  // re-check the same file); the ring entry for the old run is dropped so
  // a status query answers for the live session, not the stale ending.
  for (auto ring = finished_.begin(); ring != finished_.end(); ++ring) {
    if (ring->id == id) {
      finished_.erase(ring);
      break;
    }
  }
  it->second.session = std::move(session);
  it->second.token = std::move(token);
  return it->second.session.get();
}

void SessionRegistry::mark_running(const std::string& id, double at) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  it->second.state = SessionState::kRunning;
  it->second.progress.started_at = at;
}

void SessionRegistry::note_pass(const std::string& id,
                                const SessionProgress& progress) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  const double started_at = it->second.progress.started_at;
  it->second.progress = progress;
  it->second.progress.started_at = started_at;
}

CancelResult SessionRegistry::cancel(const std::string& id) {
  std::shared_ptr<CancelToken> token;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) {
      return find_finished_locked(id) != nullptr ? CancelResult::kFinished
                                                 : CancelResult::kUnknown;
    }
    token = it->second.token;
  }
  // The flip happens outside the lock: it is a lone atomic store, but
  // keeping lock scopes minimal here means cancel can never contend with
  // a scheduler thread finishing the very session being cancelled.
  if (token != nullptr) token->cancel();
  return CancelResult::kSignalled;
}

void SessionRegistry::finish(const std::string& id, SessionState state,
                             const metrics::MetricsSnapshot& metrics,
                             std::string error) {
  std::unique_ptr<core::CheckSession> released;
  std::string metrics_json = metrics.to_json().dump();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) return;
    released = std::move(it->second.session);
    entries_.erase(it);
    switch (state) {
      case SessionState::kDone: ++finished_counts_.done; break;
      case SessionState::kFailed: ++finished_counts_.failed; break;
      case SessionState::kCancelled: ++finished_counts_.cancelled; break;
      case SessionState::kExhausted: ++finished_counts_.exhausted; break;
      case SessionState::kQueued:
      case SessionState::kRunning:
        break;  // not final states; callers never pass these
    }
    finished_.push_back(
        {id, state, std::move(error), std::move(metrics_json)});
    if (finished_.size() > kFinishedRingSize) finished_.pop_front();
  }
  // The session (and its BDD manager) is destroyed outside the lock:
  // tearing down a large manager is not cheap enough to serialize the
  // whole registry behind.
}

const SessionRegistry::Finished* SessionRegistry::find_finished_locked(
    const std::string& id) const {
  for (const Finished& f : finished_) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

std::optional<SessionInfo> SessionRegistry::info(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  if (it != entries_.end()) {
    return SessionInfo{id, it->second.state, {}, /*finished=*/false};
  }
  if (const Finished* f = find_finished_locked(id)) {
    return SessionInfo{id, f->state, f->error, /*finished=*/true};
  }
  return std::nullopt;
}

std::optional<SessionProgress> SessionRegistry::progress(
    const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return std::nullopt;
  return it->second.progress;
}

std::optional<std::string> SessionRegistry::finished_metrics(
    const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const Finished* f = find_finished_locked(id)) return f->metrics_json;
  return std::nullopt;
}

std::vector<SessionInfo> SessionRegistry::list() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionInfo> result;
  result.reserve(entries_.size() + finished_.size());
  for (const auto& [id, entry] : entries_) {
    result.push_back({id, entry.state, {}, /*finished=*/false});
  }
  for (const Finished& f : finished_) {
    result.push_back({f.id, f.state, f.error, /*finished=*/true});
  }
  return result;
}

RegistryCounts SessionRegistry::counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  RegistryCounts c = finished_counts_;
  for (const auto& [id, entry] : entries_) {
    switch (entry.state) {
      case SessionState::kQueued: ++c.queued; break;
      case SessionState::kRunning: ++c.running; break;
      default: break;  // live entries are only ever queued or running
    }
  }
  return c;
}

}  // namespace stgcheck::server
