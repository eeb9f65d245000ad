// Served workloads: the real aeetes_server process, started from a v2
// snapshot, driven over TCP by one client thread. Two measured phases:
//
//  * capacity: closed loop, two connections, each sends its next request
//    when the previous answer arrives -> docs_per_s;
//  * latency: open loop, requests sent on a seeded Poisson schedule at a
//    fixed offered rate (about a third of capacity), each timed from the
//    moment it was due -> p50_ms / p99_ms, and the generator's lateness.
//
// pubmed_live adds a writer connection that upserts held-out entities and
// removes frozen ones on a fixed schedule, asking for a compaction after
// every kCompactEvery mutations.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "perfbench/runs.h"
#include "perfbench/workloads.h"
#include "src/core/aeetes.h"
#include "src/core/delta_layer.h"
#include "src/io/snapshot.h"
#include "src/runtime/parallel_extractor.h"
#include "src/server/json.h"
#include "src/server/protocol.h"

extern char** environ;

namespace perfbench {

namespace {

using aeetes::server::JsonValue;

constexpr const char* kCollection = "bench";
/// Extractor pool of the server; with the one client thread it must fit
/// the host's online CPUs (checked at start-up).
constexpr unsigned kServerThreads = 2;
constexpr unsigned kClientThreads = 1;
constexpr size_t kDocsPerRequest = 8;
/// Closed-loop requests outstanding per connection: two keep the server's
/// pool busy while an answer travels back, so the capacity phase measures
/// the server rather than the client's turnaround.
constexpr size_t kPipelineDepth = 2;
constexpr size_t kDistinctRequests = 128;
/// Set-ups per untraced run; the median is reported.
constexpr int kSetups = 11;
/// Live writer schedule: one mutation every kMutationMs, a compaction
/// after every kCompactEvery mutations.
constexpr double kMutationMs = 100.0;
constexpr size_t kCompactEvery = 10;
constexpr size_t kUpsertBatch = 4;
constexpr size_t kRemoveBatch = 2;
/// Share of the generated entities held out of the frozen snapshot.
constexpr double kHeldOut = 0.10;

// ---------------------------------------------------------------- wire --

std::string ExtractPayload(const std::vector<std::string>& docs, double tau) {
  std::string out = "{\"verb\":\"extract\",\"collection\":\"";
  out += kCollection;
  out += "\",\"tau\":";
  out += JsonNumber(tau);
  out += ",\"docs\":[";
  for (size_t i = 0; i < docs.size(); ++i) {
    if (i != 0) out += ',';
    aeetes::jsonio::AppendString(&out, docs[i]);
  }
  out += "]}";
  return out;
}

std::string VerbPayload(const std::string& verb,
                        const std::vector<std::string>* entities = nullptr) {
  std::string out = "{\"verb\":";
  aeetes::jsonio::AppendString(&out, verb);
  out += ",\"collection\":\"";
  out += kCollection;
  out += '"';
  if (entities != nullptr) {
    out += ",\"entities\":[";
    for (size_t i = 0; i < entities->size(); ++i) {
      if (i != 0) out += ',';
      aeetes::jsonio::AppendString(&out, (*entities)[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

/// ok / rejected (429, 503) / failed, from a response payload.
enum class Outcome { kOk, kRejected, kFailed };

Outcome Classify(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->AsBool()) return Outcome::kOk;
  const JsonValue* code = response.Find("code");
  if (code != nullptr && code->is_number()) {
    const int c = static_cast<int>(code->AsDouble());
    if (c == aeetes::server::kRateLimited || c == aeetes::server::kDraining) {
      return Outcome::kRejected;
    }
  }
  return Outcome::kFailed;
}

/// One TCP connection speaking the framed protocol. Writes block (frames
/// are small against the socket buffer); reads are driven by poll().
class Conn {
 public:
  static std::unique_ptr<Conn> Open(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return std::unique_ptr<Conn>(new Conn(fd));
  }

  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  bool Send(const std::string& payload) {
    std::string frame;
    aeetes::server::EncodeFrame(payload, &frame);
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads what the socket holds; appends complete frames. False on EOF
  /// or error.
  bool Pump(std::vector<std::string>* frames) {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        reader_.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    std::string payload;
    while (true) {
      const auto next = reader_.Poll(&payload);
      if (next == aeetes::server::FrameReader::Next::kFrame) {
        frames->push_back(std::move(payload));
      } else {
        return next != aeetes::server::FrameReader::Next::kBad;
      }
    }
  }

  /// One blocking round trip (set-up, admin and check traffic only).
  bool Call(const std::string& payload, std::string* response) {
    if (!Send(payload)) return false;
    std::vector<std::string> frames;
    const double deadline = Now() + 60.0;
    while (frames.empty()) {
      pollfd p{fd_, POLLIN, 0};
      if (Now() > deadline || ::poll(&p, 1, 100) < 0) return false;
      if (!Pump(&frames)) return false;
    }
    *response = std::move(frames.front());
    return true;
  }

 private:
  explicit Conn(int fd) : fd_(fd) {}
  int fd_;
  aeetes::server::FrameReader reader_;
};

/// Parses a response; null JSON on malformed input (counted as failed).
JsonValue Parse(const std::string& payload) {
  auto parsed = aeetes::server::ParseJson(payload);
  return parsed.ok() ? std::move(*parsed) : JsonValue();
}

/// Field `key` of the one collection in a `list` response; -1 when absent.
double CollectionField(const JsonValue& listed, const char* key) {
  const JsonValue* cols = listed.Find("collections");
  if (cols == nullptr || cols->size() != 1) return -1.0;
  const JsonValue* v = cols->at(0).Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : -1.0;
}

// -------------------------------------------------------------- server --

/// The aeetes_server child process. Destruction kills and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Spawn(const std::string& bin, const std::string& snapshot,
             const std::string& port_file) {
    ::unlink(port_file.c_str());
    port_file_ = port_file;
    const std::vector<std::string> argv_s = {
        bin,
        "--snapshot=" + snapshot,
        std::string("--collection=") + kCollection,
        "--port=0",
        "--port-file=" + port_file,
        "--threads=" + std::to_string(kServerThreads)};
    std::vector<char*> argv;
    for (const std::string& a : argv_s) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // The result line must stay the last line of our stdout.
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const int rc = ::posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  /// Polls the port file the server writes once its collection is loaded.
  uint16_t WaitPort(double timeout_s) const {
    const double deadline = Now() + timeout_s;
    while (Now() < deadline) {
      std::ifstream in(port_file_);
      unsigned port = 0;
      if (in >> port && port != 0) return static_cast<uint16_t>(port);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) return 0;  // it died
      ::usleep(100);
    }
    return 0;
  }

  [[nodiscard]] double PeakRss() const { return PeakRssMb(pid_); }

  /// SIGTERM (graceful drain) and reap; true when it exited 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const pid_t reaped = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  std::string port_file_;
};

// ---------------------------------------------------------- live writer --

/// The live workload's mutation script over its writer connection: one
/// operation in flight at a time, mutations on a fixed schedule, and after
/// every kCompactEvery mutations a compaction whose duration is measured
/// from the `compact` request until `list` shows the version bump.
class Writer {
 public:
  Writer(Conn* conn, const std::vector<std::string>* held_out,
         const std::vector<std::string>* removals, size_t next_upsert,
         size_t next_remove, Tracer* tracer)
      : conn_(conn),
        held_out_(held_out),
        removals_(removals),
        next_upsert_(next_upsert),
        next_remove_(next_remove),
        tracer_(tracer) {}

  /// (Re)starts issuing; the schedule continues where it stopped.
  void Start(double now) {
    schedule_start_ =
        now - static_cast<double>(mutations_) * kMutationMs / 1e3;
    stopping_ = false;
  }
  void StopIssuing() { stopping_ = true; }
  [[nodiscard]] bool idle() const { return !in_flight_; }
  [[nodiscard]] int fd() const { return conn_->fd(); }

  /// Seconds until the writer next wants to act (for the poll timeout).
  [[nodiscard]] double NextWake(double now) const {
    if (in_flight_ || stopping_) return 1.0;
    if (compact_pending_) return 0.0;
    if (polling_) return std::max(0.0, next_poll_ - now);
    return std::max(0.0, MutationDue() - now);
  }

  /// Sends the next operation when one is due and none is in flight.
  bool Tick(double now) {
    if (in_flight_ || stopping_) return true;
    if (compact_pending_) {
      compact_pending_ = false;
      compact_sent_ = now;
      return Issue("compact", VerbPayload("compact"), now);
    }
    if (polling_) {
      if (now < next_poll_) return true;
      return Issue("list", VerbPayload("list"), now);
    }
    if (now < MutationDue()) return true;
    const size_t k = mutations_++;
    std::vector<std::string> batch;
    if (k % 4 == 3) {
      for (size_t i = 0; i < kRemoveBatch; ++i) {
        batch.push_back((*removals_)[next_remove_++ % removals_->size()]);
      }
      removed_.insert(batch.begin(), batch.end());
      return Issue("remove_entities", VerbPayload("remove_entities", &batch),
                   now);
    }
    for (size_t i = 0; i < kUpsertBatch; ++i) {
      batch.push_back((*held_out_)[next_upsert_++ % held_out_->size()]);
    }
    upserted_.insert(batch.begin(), batch.end());
    return Issue("upsert_entities", VerbPayload("upsert_entities", &batch),
                 now);
  }

  /// Reads the writer connection and handles every answer; false when the
  /// connection broke.
  bool Pump() {
    std::vector<std::string> frames;
    const bool alive = conn_->Pump(&frames);
    const double now = Now();
    for (const std::string& frame : frames) OnResponse(frame, now);
    return alive;
  }

  void OnResponse(const std::string& payload, double now) {
    in_flight_ = false;
    if (tracer_->enabled()) {
      tracer_->Add(op_, sent_, now, Tracer::kNoParent, 0);
    }
    const JsonValue response = Parse(payload);
    ++ops_;
    if (Classify(response) != Outcome::kOk) {
      ++failed_;
      polling_ = false;
      return;
    }
    if (op_ == "upsert_entities") upsert_ms_.push_back((now - sent_) * 1e3);
    if (op_ == "upsert_entities" || op_ == "remove_entities") {
      if (mutations_ % kCompactEvery == 0) compact_pending_ = true;
    } else if (op_ == "compact") {
      const JsonValue* v = response.Find("target_version");
      target_version_ = v != nullptr ? static_cast<uint64_t>(v->AsDouble()) : 0;
      polling_ = true;
      next_poll_ = now;
    } else if (op_ == "list") {
      if (CollectionField(response, "version") >=
          static_cast<double>(target_version_)) {
        polling_ = false;
        compact_s_.push_back(now - compact_sent_);
      } else {
        next_poll_ = now + 0.005;
      }
    }
  }

  [[nodiscard]] uint64_t ops() const { return ops_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  [[nodiscard]] uint64_t mutations() const { return mutations_; }
  [[nodiscard]] const std::vector<double>& upsert_ms() const {
    return upsert_ms_;
  }
  [[nodiscard]] const std::vector<double>& compact_s() const {
    return compact_s_;
  }
  [[nodiscard]] const std::set<std::string>& upserted() const {
    return upserted_;
  }
  [[nodiscard]] const std::set<std::string>& removed() const {
    return removed_;
  }
  void NoteSetupMutations(const std::vector<std::string>& upserts,
                          const std::vector<std::string>& removals) {
    upserted_.insert(upserts.begin(), upserts.end());
    removed_.insert(removals.begin(), removals.end());
  }

 private:
  [[nodiscard]] double MutationDue() const {
    return schedule_start_ +
           static_cast<double>(mutations_) * kMutationMs / 1e3;
  }

  bool Issue(const char* op, const std::string& payload, double now) {
    op_ = op;
    sent_ = now;
    in_flight_ = true;
    return conn_->Send(payload);
  }

  Conn* conn_;
  const std::vector<std::string>* held_out_;
  const std::vector<std::string>* removals_;
  size_t next_upsert_;
  size_t next_remove_;
  Tracer* tracer_;

  double schedule_start_ = 0.0;
  bool stopping_ = true;
  bool in_flight_ = false;
  std::string op_;
  double sent_ = 0.0;
  size_t mutations_ = 0;
  bool compact_pending_ = false;
  double compact_sent_ = 0.0;
  bool polling_ = false;
  double next_poll_ = 0.0;
  uint64_t target_version_ = 0;
  uint64_t ops_ = 0;
  uint64_t failed_ = 0;
  std::vector<double> upsert_ms_;
  std::vector<double> compact_s_;
  std::set<std::string> upserted_;
  std::set<std::string> removed_;
};

// ------------------------------------------------------ load generator --

struct Request {
  std::string payload;
  std::vector<size_t> docs;  // indexes into the corpus
};

/// One answered request.
struct Answer {
  size_t request = 0;  // index into the request table
  double due = 0.0;
  double sent = 0.0;
  double received = 0.0;
  std::string payload;
};

struct PhaseResult {
  std::vector<Answer> answers;
  uint64_t sent = 0;
  uint64_t unanswered = 0;
  double seconds = 0.0;
  std::vector<double> lateness_ms;
};

/// Drives the read connections (and the writer, when present) from one
/// thread. Closed loop: each connection keeps kPipelineDepth requests
/// outstanding for `duration` seconds. Open loop: requests go out at the
/// seeded Poisson due times in `due_offsets`, round-robin over the
/// connections, whether or not earlier ones were answered.
PhaseResult RunPhase(std::vector<std::unique_ptr<Conn>>& conns,
                     Writer* writer, const std::vector<Request>& requests,
                     size_t* next_request, bool closed, double duration,
                     const std::vector<double>& due_offsets, Tracer& tracer,
                     uint64_t* request_ids) {
  struct Pending {
    size_t request;
    double due;
    double send_begin;
    double sent;
    uint64_t id;
  };
  PhaseResult out;
  std::vector<std::vector<Pending>> pending(conns.size());
  std::vector<size_t> head(conns.size(), 0);
  const double start = Now();
  const double end = start + duration;
  size_t next_due = 0;
  size_t rr = 0;
  bool broken = false;

  auto send = [&](size_t c, double due) {
    const size_t r = (*next_request)++ % requests.size();
    const double t0 = Now();
    if (!conns[c]->Send(requests[r].payload)) broken = true;
    pending[c].push_back(Pending{r, due, t0, Now(), (*request_ids)++});
    ++out.sent;
    out.lateness_ms.push_back((t0 - due) * 1e3);
  };

  if (closed) {
    for (size_t c = 0; c < conns.size(); ++c) {
      for (size_t k = 0; k < kPipelineDepth; ++k) send(c, Now());
    }
  }
  std::vector<pollfd> fds;
  std::vector<std::string> frames;
  const double drain_deadline = end + 30.0;
  while (!broken) {
    const double now = Now();
    // Open loop: everything due by now goes out, late or not.
    if (!closed) {
      while (next_due < due_offsets.size() &&
             start + due_offsets[next_due] <= now) {
        send(rr++ % conns.size(), start + due_offsets[next_due]);
        ++next_due;
      }
    }
    if (writer != nullptr) {
      if (now >= end) writer->StopIssuing();
      if (!writer->Tick(now)) broken = true;
    }
    size_t outstanding = 0;
    for (size_t c = 0; c < conns.size(); ++c) {
      outstanding += pending[c].size() - head[c];
    }
    const bool sending =
        closed ? now < end : next_due < due_offsets.size();
    if (!sending && outstanding == 0 &&
        (writer == nullptr || writer->idle())) {
      break;
    }
    if (now > drain_deadline) break;

    double wait_s = 0.05;
    if (!closed && next_due < due_offsets.size()) {
      wait_s = std::min(wait_s, start + due_offsets[next_due] - now);
    }
    if (writer != nullptr) wait_s = std::min(wait_s, writer->NextWake(now));
    fds.clear();
    for (const auto& conn : conns) fds.push_back(pollfd{conn->fd(), POLLIN, 0});
    if (writer != nullptr) fds.push_back(pollfd{writer->fd(), POLLIN, 0});
    // Sub-millisecond waits spin through poll(0) to keep send times
    // close to the schedule.
    const int timeout_ms =
        wait_s <= 0.001 ? 0 : static_cast<int>(wait_s * 1e3) - 1;
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      break;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      frames.clear();
      if (!conns[c]->Pump(&frames)) broken = true;
      const double received = Now();
      for (std::string& frame : frames) {
        if (head[c] >= pending[c].size()) {
          broken = true;  // an answer nobody asked for
          break;
        }
        const Pending& p = pending[c][head[c]++];
        if (tracer.enabled()) {
          const int64_t root =
              tracer.Add("request", p.due, received, Tracer::kNoParent, p.id);
          tracer.Add("client.send", p.send_begin, p.sent, root, p.id);
          tracer.Add("client.receive", p.sent, received, root, p.id);
        }
        out.answers.push_back(
            Answer{p.request, p.due, p.sent, received, std::move(frame)});
        if (closed && received < end) send(c, received);
      }
    }
    if (writer != nullptr &&
        (fds.back().revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !writer->Pump()) {
      broken = true;
    }
  }
  out.seconds = Now() - start;
  for (size_t c = 0; c < conns.size(); ++c) {
    out.unanswered += pending[c].size() - head[c];
  }
  return out;
}

using MatchTuples = std::vector<std::string>;

/// "begin len entity score" per match, sorted; `entity` is the id or, when
/// ids are not comparable (after a compaction), the entity text.
MatchTuples EngineTuples(aeetes::Aeetes& engine, const std::string& text,
                         double tau, bool by_text,
                         aeetes::ExtractScratch& scratch) {
  const aeetes::Document doc = engine.EncodeDocument(text);
  MatchTuples out;
  if (!engine.ExtractInto(scratch, doc, tau).ok()) return {"error"};
  for (const aeetes::Match& m : scratch.matches) {
    std::string score;
    aeetes::jsonio::AppendDouble(&score, m.score);
    out.push_back(std::to_string(m.token_begin) + " " +
                  std::to_string(m.token_len) + " " +
                  (by_text ? engine.EntityText(m.entity)
                           : std::to_string(m.entity)) +
                  " " + score);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The same tuples read back from one document of a served response.
MatchTuples ServedTuples(const JsonValue& result, bool by_text) {
  MatchTuples out;
  const JsonValue* matches = result.Find("matches");
  if (matches == nullptr) return {"missing"};
  for (size_t m = 0; m < matches->size(); ++m) {
    const JsonValue& match = matches->at(m);
    const JsonValue* begin = match.Find("begin");
    const JsonValue* len = match.Find("len");
    const JsonValue* entity = match.Find(by_text ? "entity_text" : "entity");
    const JsonValue* score = match.Find("score");
    if (begin == nullptr || len == nullptr || entity == nullptr ||
        score == nullptr) {
      return {"malformed"};
    }
    std::string s;
    aeetes::jsonio::AppendDouble(&s, score->AsDouble());
    out.push_back(
        std::to_string(static_cast<uint64_t>(begin->AsDouble())) + " " +
        std::to_string(static_cast<uint64_t>(len->AsDouble())) + " " +
        (by_text ? entity->AsString()
                 : std::to_string(static_cast<uint64_t>(entity->AsDouble()))) +
        " " + s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Outcome counts of one phase, for the report.
struct Tally {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t wrong = 0;
};

/// Classifies every answer; with `expected` (read-only serving) also
/// compares each document's matches with the in-process result.
Tally Check(const PhaseResult& phase, const std::vector<Request>& requests,
            const std::vector<MatchTuples>* expected) {
  Tally t;
  for (const Answer& a : phase.answers) {
    const JsonValue response = Parse(a.payload);
    const Outcome o = Classify(response);
    if (o == Outcome::kRejected) {
      ++t.rejected;
      continue;
    }
    if (o == Outcome::kFailed) {
      ++t.failed;
      continue;
    }
    const JsonValue* results = response.Find("results");
    const std::vector<size_t>& docs = requests[a.request].docs;
    bool right = results != nullptr && results->size() == docs.size();
    for (size_t d = 0; right && expected != nullptr && d < docs.size(); ++d) {
      right = ServedTuples(results->at(d), false) == (*expected)[docs[d]];
    }
    if (right) {
      ++t.ok;
    } else {
      ++t.wrong;
    }
  }
  t.failed += phase.unanswered;
  return t;
}

void ReportPhase(Report& report, const std::string& phase,
                 const PhaseResult& result, const Tally& t) {
  report.Info(phase + ".sent", static_cast<double>(result.sent));
  report.Info(phase + ".succeeded", static_cast<double>(t.ok));
  report.Info(phase + ".failed", static_cast<double>(t.failed + t.wrong));
  report.Info(phase + ".rejected", static_cast<double>(t.rejected));
  report.Info(phase + ".seconds", result.seconds);
}

/// Docs answered per second over a phase.
double DocsPerSecond(const PhaseResult& phase,
                     const std::vector<Request>& requests) {
  size_t docs = 0;
  for (const Answer& a : phase.answers) docs += requests[a.request].docs.size();
  return phase.seconds > 0 ? static_cast<double>(docs) / phase.seconds : 0.0;
}

/// `aeetes_server_batches_total` from the `metrics` verb.
double BatchesTotal(Conn& admin) {
  std::string response;
  if (!admin.Call(VerbPayload("metrics"), &response)) return 0.0;
  const JsonValue parsed = Parse(response);
  const JsonValue* text = parsed.Find("text");
  if (text == nullptr) return 0.0;
  const std::string& prom = text->AsString();
  const std::string key = "\naeetes_server_batches_total ";
  const size_t at = prom.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(prom.c_str() + at + key.size(), nullptr);
}

/// The seeded inputs of one served run.
struct Inputs {
  std::vector<std::string> frozen;    // entities in the snapshot
  std::vector<std::string> held_out;  // pubmed_live: upserted later
  std::vector<std::string> removals;  // frozen entities in removal order
  std::vector<Request> requests;
  std::vector<double> due_offsets;  // open-loop schedule, seconds
};

Inputs MakeInputs(const aeetes::SyntheticDataset& ds, const WorkloadSpec& spec,
                  uint64_t seed, bool live, double open_s) {
  Inputs in;
  std::vector<std::string> entities;  // distinct texts, first occurrence
  std::set<std::string> seen;
  for (const std::string& e : ds.entity_texts) {
    if (seen.insert(e).second) entities.push_back(e);
  }
  std::mt19937_64 rng(seed ^ 0x5E12FEULL);
  std::vector<size_t> order(entities.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  const size_t n_held =
      live ? static_cast<size_t>(kHeldOut * static_cast<double>(order.size()))
           : 0;
  std::vector<bool> is_held(entities.size(), false);
  for (size_t i = 0; i < n_held; ++i) {
    is_held[order[i]] = true;
    in.held_out.push_back(entities[order[i]]);
  }
  for (size_t i = 0; i < entities.size(); ++i) {
    if (!is_held[i]) in.frozen.push_back(entities[i]);
  }
  in.removals = in.frozen;
  std::shuffle(in.removals.begin(), in.removals.end(), rng);

  in.requests.resize(kDistinctRequests);
  for (Request& r : in.requests) {
    std::vector<std::string> docs;
    for (size_t d = 0; d < kDocsPerRequest; ++d) {
      r.docs.push_back(rng() % ds.documents.size());
      docs.push_back(ds.documents[r.docs.back()]);
    }
    r.payload = ExtractPayload(docs, spec.tau);
  }
  std::exponential_distribution<double> gap(spec.open_loop_rps);
  for (double t = gap(rng); t < open_s; t += gap(rng)) {
    in.due_offsets.push_back(t);
  }
  return in;
}

/// The snapshot and port file of one run; removed when the run ends.
struct RunFiles {
  explicit RunFiles(const std::string& workdir)
      : dir(workdir + "/served_" + std::to_string(::getpid())),
        snapshot(dir + "/bench.snap"),
        port_file(dir + "/port") {
    ::mkdir(dir.c_str(), 0755);
  }
  ~RunFiles() {
    ::unlink(snapshot.c_str());
    ::unlink(port_file.c_str());
    ::rmdir(dir.c_str());
  }
  RunFiles(const RunFiles&) = delete;
  RunFiles& operator=(const RunFiles&) = delete;

  std::string dir;
  std::string snapshot;
  std::string port_file;
};

bool CallOk(Conn& conn, const std::string& payload, std::string* response) {
  return conn.Call(payload, response) &&
         Classify(Parse(*response)) == Outcome::kOk;
}

/// Traced run only: the layers' in-process cost on the first requests,
/// the overlay's cost, and what an idle server adds to a round trip.
void MeasureLayers(const std::string& snapshot, const Inputs& in,
                   const std::vector<std::string>& texts,
                   const std::vector<std::string>& setup_upserts,
                   const std::vector<std::string>& setup_removals, bool live,
                   double tau, Conn& conn, Tracer& tracer, Report& report,
                   std::map<std::string, double>& layers, uint64_t* attempted,
                   uint64_t* failed) {
  const size_t sample = std::min<size_t>(32, in.requests.size());
  std::vector<double> load_ms;
  std::unique_ptr<aeetes::Aeetes> loaded;
  for (int k = 0; k < 3; ++k) {
    loaded.reset();
    const double t0 = Now();
    Scope s(tracer, "LoadSnapshot");
    auto r = aeetes::LoadSnapshot(snapshot);
    if (!r.ok()) {
      report.Fail("LoadSnapshot: " + r.status().ToString());
      return;
    }
    loaded = std::move(*r);
    load_ms.push_back((Now() - t0) * 1e3);
  }
  struct stat st = {};
  ::stat(snapshot.c_str(), &st);
  layers["io.snapshot_load_ms"] = Median(load_ms);
  layers["io.snapshot_mb"] = static_cast<double>(st.st_size) / (1 << 20);

  aeetes::ParallelExtractorOptions popts;
  popts.num_threads = kServerThreads;
  auto pool = aeetes::ParallelExtractor::Create(*loaded, popts);
  if (!pool.ok()) {
    report.Fail("ParallelExtractor: " + pool.status().ToString());
    return;
  }
  const size_t dict_before = loaded->derived_dictionary().token_dict().size();
  const uint64_t steals_before = (*pool)->PoolStats().steals;
  aeetes::ExtractScratch scratch;
  LayerTotals totals;
  std::vector<double> inproc_s;
  std::vector<double> fanout_us;
  std::vector<double> parse_us;
  for (size_t r = 0; r < sample; ++r) {
    const std::vector<size_t>& docs = in.requests[r].docs;
    for (size_t d = 0; d < docs.size(); ++d) {
      TracedDoc(*loaded, texts[docs[d]], tau, tracer, r * kDocsPerRequest + d,
                scratch, totals);
    }
    // The request the way the server runs it: encode serially, then fan
    // the documents out over a pool of the server's size.
    std::vector<aeetes::Document> encoded;
    const double e0 = Now();
    for (size_t d : docs) encoded.push_back(loaded->EncodeDocument(texts[d]));
    const double encode_s = Now() - e0;
    double seq_s = 0.0;
    for (const aeetes::Document& d : encoded) {
      const double t0 = Now();
      (void)loaded->ExtractInto(scratch, d, tau);
      seq_s += Now() - t0;
    }
    const double t0 = Now();
    {
      Scope s(tracer, "ExtractAll", r);
      (void)(*pool)->ExtractAll(encoded, tau);
    }
    const double par_s = Now() - t0;
    fanout_us.push_back((par_s - seq_s) * 1e6);
    inproc_s.push_back(encode_s + par_s);
    const double p0 = Now();
    {
      Scope s(tracer, "ParseRequest", r);
      (void)aeetes::server::ParseRequest(in.requests[r].payload);
    }
    parse_us.push_back((Now() - p0) * 1e6);
  }
  LayerValues(totals, layers);
  layers["text.dict_growth"] = static_cast<double>(
      loaded->derived_dictionary().token_dict().size() - dict_before);
  layers["runtime.fanout_us"] = Mean(fanout_us);
  layers["runtime.steals"] =
      static_cast<double>((*pool)->PoolStats().steals - steals_before);
  layers["server.json_parse_us"] = Mean(parse_us);

  // Overlay cost: the same documents with the live workload's set-up
  // overlay attached (an empty, passthrough one when serving read-only),
  // against the engine without one.
  auto with_delta = aeetes::LoadSnapshot(snapshot);
  auto delta = with_delta.ok() ? aeetes::DeltaLayer::Create(
                                     (*with_delta)->derived_dictionary(), {})
                               : with_delta.status();
  if (!delta.ok()) {
    report.Fail("overlay: " + delta.status().ToString());
    return;
  }
  if (live) {
    (void)(*delta)->UpsertEntities(setup_upserts);
    (void)(*delta)->RemoveEntities(setup_removals);
  }
  (*with_delta)->AttachDelta(*delta);
  std::vector<aeetes::Document> plain_docs;
  std::vector<aeetes::Document> delta_docs;
  for (size_t r = 0; r < sample; ++r) {
    for (size_t d : in.requests[r].docs) {
      plain_docs.push_back(loaded->EncodeDocument(texts[d]));
      delta_docs.push_back((*with_delta)->EncodeDocument(texts[d]));
    }
  }
  // Round 0 warms both engines and is not counted.
  std::vector<double> overhead_us;
  for (int round = 0; round < 6; ++round) {
    double plain_s = 0.0;
    double delta_s = 0.0;
    for (size_t i = 0; i < plain_docs.size(); ++i) {
      double t0 = Now();
      (void)loaded->ExtractInto(scratch, plain_docs[i], tau);
      plain_s += Now() - t0;
      t0 = Now();
      (void)(*with_delta)->ExtractInto(scratch, delta_docs[i], tau);
      delta_s += Now() - t0;
    }
    if (round == 0) continue;
    overhead_us.push_back((delta_s - plain_s) * 1e6 /
                          static_cast<double>(plain_docs.size()));
  }
  layers["delta.overhead_us"] = Median(overhead_us);

  // The same requests served one at a time on the idle server: what the
  // round trip adds to the in-process encode + extract.
  std::vector<double> residual_ms;
  std::vector<double> response_bytes;
  for (size_t r = 0; r < sample; ++r) {
    std::string response;
    const double t0 = Now();
    const bool ok = CallOk(conn, in.requests[r].payload, &response);
    const double t1 = Now();
    tracer.Add("request.unloaded", t0, t1, Tracer::kNoParent, r);
    ++*attempted;
    if (!ok) {
      ++*failed;
      continue;
    }
    residual_ms.push_back((t1 - t0 - inproc_s[r]) * 1e3);
    response_bytes.push_back(static_cast<double>(response.size()));
  }
  layers["server.residual_ms"] = Mean(residual_ms);
  layers["server.response_bytes"] = Mean(response_bytes);
}

/// pubmed_live: folds the overlay into a fresh image, then compares the
/// served results of a few requests with an engine rebuilt from the final
/// entity set. The server loaded its collection from a snapshot, so its
/// overlay expands upserted entities under no synonym rules
/// (collection_manager.h); the rebuild therefore builds the surviving
/// frozen entities with the rules and the upserted ones without, and
/// merges the two answers. Returns the number of requests that differ,
/// or -1 when the compaction did not complete.
int CheckAgainstRebuild(Conn& admin, Conn& conn, const Inputs& in,
                        const Writer& writer,
                        const aeetes::SyntheticDataset& ds, double tau,
                        size_t sample) {
  std::string response;
  if (!CallOk(admin, VerbPayload("compact"), &response)) return -1;
  const JsonValue compact = Parse(response);
  const JsonValue* version = compact.Find("target_version");
  if (version == nullptr) return -1;
  const double deadline = Now() + 30.0;
  while (true) {
    if (!CallOk(admin, VerbPayload("list"), &response)) return -1;
    if (CollectionField(Parse(response), "version") >= version->AsDouble()) {
      break;
    }
    if (Now() > deadline) return -1;
    ::usleep(5000);
  }

  std::vector<std::string> frozen_live;
  for (const std::string& e : in.frozen) {
    if (writer.removed().count(e) == 0) frozen_live.push_back(e);
  }
  const std::vector<std::string> delta_live(writer.upserted().begin(),
                                            writer.upserted().end());
  auto ref_frozen = aeetes::Aeetes::BuildFromText(frozen_live, ds.rule_lines);
  auto ref_delta = aeetes::Aeetes::BuildFromText(delta_live, {});
  if (!ref_frozen.ok() || !ref_delta.ok()) return -1;
  aeetes::ExtractScratch scratch;
  int wrong = 0;
  for (size_t r = 0; r < sample; ++r) {
    const std::vector<size_t>& docs = in.requests[r].docs;
    const bool answered = CallOk(conn, in.requests[r].payload, &response);
    const JsonValue parsed = Parse(response);
    const JsonValue* results = parsed.Find("results");
    bool right = answered && results != nullptr && results->size() == docs.size();
    for (size_t d = 0; right && d < docs.size(); ++d) {
      const std::string& text = ds.documents[docs[d]];
      MatchTuples want = EngineTuples(**ref_frozen, text, tau, true, scratch);
      const MatchTuples more = EngineTuples(**ref_delta, text, tau, true, scratch);
      want.insert(want.end(), more.begin(), more.end());
      std::sort(want.begin(), want.end());
      right = ServedTuples(results->at(d), true) == want;
    }
    if (!right) ++wrong;
  }
  return wrong;
}

}  // namespace

int RunServed(const Args& args, const WorkloadSpec& spec) {
  Report report;
  Tracer tracer(args.trace);
  Tracer untraced(false);
  const bool live = spec.mode == Mode::kLive;
  report.Info("workload", spec.name);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("nproc", static_cast<double>(Nproc()));
  report.Info("server_threads", static_cast<double>(kServerThreads));
  report.Info("client_threads", static_cast<double>(kClientThreads));
  report.Info("docs_per_request", static_cast<double>(kDocsPerRequest));
  report.Info("offered_rps", spec.open_loop_rps);
  if (kClientThreads + kServerThreads > Nproc()) {
    std::fprintf(stderr,
                 "perfbench: %u client + %u server pool threads do not fit "
                 "%u online CPUs\n",
                 kClientThreads, kServerThreads, Nproc());
    return 1;
  }
  const double calibration_before = CalibrationMs();
  const double memory_calibration_before = MemoryCalibrationMs();

  const aeetes::SyntheticDataset ds = Generate(spec, args.seed, args.quick);
  const std::vector<std::string>& texts = ds.documents;
  const double open_s = 0.7 * args.seconds;
  const Inputs in = MakeInputs(ds, spec, args.seed, live, open_s);
  report.Info("frozen_entities", static_cast<double>(in.frozen.size()));
  report.Info("held_out_entities", static_cast<double>(in.held_out.size()));
  report.Info("documents", static_cast<double>(texts.size()));
  report.Info("tau", spec.tau);

  // Offline, untimed: the engine the snapshot is written from, and its
  // in-process answer for every document.
  std::map<std::string, double> layers;
  const RunFiles files(args.workdir);
  std::vector<MatchTuples> expected;
  {
    Scope span(tracer, "BuildFromText");
    auto built = aeetes::Aeetes::BuildFromText(in.frozen, ds.rule_lines);
    const aeetes::Status saved =
        built.ok() ? aeetes::SaveSnapshot(**built, files.snapshot)
                   : built.status();
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot: %s\n", saved.ToString().c_str());
      return 1;
    }
    aeetes::Aeetes& engine = **built;
    BuildValues(engine, layers);
    aeetes::ExtractScratch scratch;
    for (const std::string& text : texts) {
      expected.push_back(EngineTuples(engine, text, spec.tau, false, scratch));
    }
  }

  // Set-up, timed: start the server from the snapshot, wait until healthz
  // answers and, for the live workload, pre-populate the overlay.
  const std::vector<std::string> setup_upserts(
      in.held_out.begin(),
      in.held_out.begin() + static_cast<ptrdiff_t>(in.held_out.size() / 4));
  const std::vector<std::string> setup_removals(
      in.removals.begin(),
      in.removals.begin() +
          static_cast<ptrdiff_t>(live ? std::min<size_t>(8, in.removals.size())
                                      : 0));
  ServerProcess server;
  std::unique_ptr<Conn> admin;
  uint16_t port = 0;
  std::vector<double> setup_s;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    if (k > 0) {
      admin.reset();
      if (!server.Stop()) report.Fail("server did not exit 0 on SIGTERM");
    }
    const double t0 = Now();
    Scope setup_span(tracer, "setup");
    port = 0;
    {
      Scope s(tracer, "server_start");
      if (server.Spawn(args.server_bin, files.snapshot, files.port_file)) {
        port = server.WaitPort(30.0);
      }
    }
    if (port != 0) admin = Conn::Open(port);
    if (admin == nullptr) {
      std::fprintf(stderr, "aeetes_server did not come up (%s)\n",
                   args.server_bin.c_str());
      return 1;
    }
    std::string response;
    bool ok = false;
    {
      Scope s(tracer, "healthz");
      ok = CallOk(*admin, VerbPayload("healthz"), &response);
    }
    if (ok && live) {
      {
        Scope s(tracer, "upsert_entities");
        ok = CallOk(*admin, VerbPayload("upsert_entities", &setup_upserts),
                    &response);
      }
      Scope s(tracer, "remove_entities");
      ok = ok && CallOk(*admin, VerbPayload("remove_entities", &setup_removals),
                        &response);
    }
    if (!ok) {
      std::fprintf(stderr, "set-up request failed: %s\n", response.c_str());
      return 1;
    }
    setup_s.push_back(Now() - t0);
  }

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < 2; ++c) {
    conns.push_back(Conn::Open(port));
    if (conns.back() == nullptr) {
      std::fprintf(stderr, "cannot connect to aeetes_server\n");
      return 1;
    }
  }
  Writer writer(admin.get(), &in.held_out, &in.removals, setup_upserts.size(),
                setup_removals.size(), &tracer);
  writer.NoteSetupMutations(setup_upserts, setup_removals);
  Writer* live_writer = live ? &writer : nullptr;
  const std::vector<MatchTuples>* want = live ? nullptr : &expected;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (args.trace) {
    MeasureLayers(files.snapshot, in, texts, setup_upserts, setup_removals,
                  live, spec.tau, *conns[0], tracer, report, layers,
                  &attempted, &failed);
  }

  // Capacity: closed loop over two connections. A traced run first runs
  // it untraced, as the reference for the tracing overhead.
  size_t next_request = 0;
  uint64_t request_ids = 0;
  const std::vector<double> no_schedule;
  double untraced_docs_per_s = 0.0;
  if (args.trace) {
    writer.Start(Now());
    const PhaseResult plain =
        RunPhase(conns, live_writer, in.requests, &next_request, true,
                 0.15 * args.seconds, no_schedule, untraced, &request_ids);
    const Tally t = Check(plain, in.requests, want);
    ReportPhase(report, "capacity_untraced", plain, t);
    attempted += plain.sent;
    failed += t.failed + t.wrong + t.rejected;
    untraced_docs_per_s = DocsPerSecond(plain, in.requests);
  }
  writer.Start(Now());
  const PhaseResult capacity =
      RunPhase(conns, live_writer, in.requests, &next_request, true,
               (args.trace ? 0.15 : 0.3) * args.seconds, no_schedule, tracer,
               &request_ids);
  const double batches_before = BatchesTotal(*admin);

  // Latency: open loop at the fixed offered rate.
  writer.Start(Now());
  const PhaseResult open =
      RunPhase(conns, live_writer, in.requests, &next_request, false, open_s,
               in.due_offsets, tracer, &request_ids);
  const double batches = BatchesTotal(*admin) - batches_before;
  std::vector<double> latency_ms;
  for (const Answer& a : open.answers) {
    latency_ms.push_back((a.received - a.due) * 1e3);
  }

  const Tally cap_tally = Check(capacity, in.requests, want);
  const Tally open_tally = Check(open, in.requests, want);
  ReportPhase(report, "capacity", capacity, cap_tally);
  ReportPhase(report, "open_loop", open, open_tally);
  attempted += capacity.sent + open.sent + writer.ops();
  failed += cap_tally.failed + cap_tally.wrong + cap_tally.rejected +
            open_tally.failed + open_tally.wrong + open_tally.rejected +
            writer.failed();
  if (cap_tally.wrong + open_tally.wrong != 0) {
    report.Fail(std::to_string(cap_tally.wrong + open_tally.wrong) +
                " served responses differ from in-process ExtractInto");
  }

  // Overlay state at the end of the measured phases.
  std::string response;
  if (CallOk(*admin, VerbPayload("list"), &response)) {
    const JsonValue listed = Parse(response);
    layers["delta.entities"] = CollectionField(listed, "delta_entities");
    layers["delta.tombstones"] = CollectionField(listed, "tombstones");
  }

  if (live) {
    const size_t sample = std::min<size_t>(5, in.requests.size());
    const int wrong = CheckAgainstRebuild(*admin, *conns[0], in, writer, ds,
                                          spec.tau, sample);
    attempted += 1 + sample;
    report.Info("rebuild_check_requests", static_cast<double>(sample));
    if (wrong < 0) {
      failed += 1;
      report.Fail("final compaction did not complete");
    } else if (wrong > 0) {
      failed += static_cast<uint64_t>(wrong);
      report.Fail(std::to_string(wrong) +
                  " sampled requests differ from a rebuild after the last "
                  "compaction");
    }
  }

  const double rss_mb = server.PeakRss();
  conns.clear();
  admin.reset();
  if (!server.Stop()) report.Fail("server did not exit 0 on SIGTERM");

  report.Info("open_loop.latency_samples",
              static_cast<double>(latency_ms.size()));
  report.Info("open_loop.late_p50_ms", Percentile(open.lateness_ms, 0.5));
  report.Info("open_loop.late_p99_ms", Percentile(open.lateness_ms, 0.99));
  report.Info("writer.ops", static_cast<double>(writer.ops()));
  report.Info("writer.failed", static_cast<double>(writer.failed()));
  report.Info("writer.mutations", static_cast<double>(writer.mutations()));
  report.Info("writer.compactions",
              static_cast<double>(writer.compact_s().size()));
  report.Info("calibration_ms_before", calibration_before);
  report.Info("calibration_ms_after", CalibrationMs());
  report.Info("memory_calibration_ms_before", memory_calibration_before);
  report.Info("memory_calibration_ms_after", MemoryCalibrationMs());
  for (size_t k = 0; k < setup_s.size(); ++k) {
    report.Info("setup_s_" + std::to_string(k), setup_s[k]);
  }

  if (args.trace) {
    layers["server.batch_jobs"] =
        batches > 0 ? static_cast<double>(open.answers.size()) / batches : 0.0;
    layers["delta.upsert_ms"] = Mean(writer.upsert_ms());
    layers["compact.s"] = Mean(writer.compact_s());
    layers["compact.count"] = static_cast<double>(writer.compact_s().size());
    layers["loadgen.late_p99_ms"] = Percentile(open.lateness_ms, 0.99);
    const double traced_docs_per_s = DocsPerSecond(capacity, in.requests);
    PrintSelfTimes(tracer);
    const double overhead_pct =
        (untraced_docs_per_s / traced_docs_per_s - 1.0) * 100.0;
    std::printf("capacity docs/s untraced %.1f, traced %.1f: tracing "
                "overhead %.2f%%\n",
                untraced_docs_per_s, traced_docs_per_s, overhead_pct);
    report.Info("trace.overhead_pct", overhead_pct);
    const std::string trace_path = args.workdir + "/trace_" + spec.name +
                                   "_" + std::to_string(args.seed) + ".json";
    if (tracer.Write(trace_path)) report.Info("trace_file", trace_path);
    EmitPerLayer(report, layers);
  } else {
    report.Metric("docs_per_s", DocsPerSecond(capacity, in.requests),
                  "docs/s");
    report.Metric("p50_ms", Percentile(latency_ms, 0.50), "ms");
    report.Metric("p99_ms", Percentile(latency_ms, 0.99), "ms");
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("rss_peak_mb", rss_mb, "MB");
  }
  return report.Finish(attempted, failed);
}

}  // namespace perfbench
