// The lolserve daemon wire format: newline-delimited JSON.
//
// One request object per line in, one event object per line out. The
// codec is deliberately tiny (no external JSON dependency): a recursive
// descent parser for the subset the protocol uses plus serializers for
// the event lines. Events are correlated by job id; a job's "accepted"
// event always precedes its "done" event (the daemon holds early
// completions back until the id has been announced).
//
// Requests:
//   {"op":"submit","source":"HAI ...","name":"lab1","n_pes":4,
//    "tenant":"alice","deadline_ms":200,"max_steps":100000,
//    "heap_bytes":1048576,"backend":"vm","seed":7,"stdin":["line1"],
//    "executor":"pool","pes_per_thread":0,"barrier_radix":0,
//    "opt_level":2}
//   ("executor" picks the PE mapping: pool (default), thread, or fiber
//    for n_pes far beyond the host's cores; "barrier_radix" tunes the
//    combining-tree fan-in, < 2 = auto, results are radix-invariant;
//    "opt_level" is the optimizing middle-end level 0..2, default 2 —
//    a non-integer or out-of-range value is a protocol error)
//   {"op":"cancel","id":7}
//   {"op":"stats"}   {"op":"metrics"}   {"op":"ping"}   {"op":"shutdown"}
//
// Events:
//   {"event":"accepted","id":7,"name":"lab1","tenant":"alice"}
//   {"event":"done","id":7,"name":"lab1","tenant":"alice","status":"ok",
//    "error":"","cached":true,"queue_ms":0.1,"run_ms":1.9,
//    "trace":[{"span":"queued","start_ms":0.0,"dur_ms":0.1},...],
//    "output":["..."],"errout":["..."]}
//   (done events add "tuned":"executor=fiber ..." when the service
//    applied persisted auto-tuner knobs to the run)
//   {"event":"cancel","id":7,"ok":true}
//   {"event":"stats",...}   {"event":"pong"}   {"event":"bye"}
//   {"event":"metrics","text":"# HELP ...\n..."}  (Prometheus exposition)
//   {"event":"error","message":"..."}
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/job.hpp"
#include "service/service.hpp"

namespace lol::service::wire {

/// A parsed JSON value (the subset NDJSON requests need).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  /// Object member lookup; null when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] bool is(Kind k) const { return kind == k; }
};

/// Parses one JSON document (trailing garbage is an error). Returns
/// nullopt and fills `error` on malformed input.
std::optional<Json> parse_json(std::string_view text,
                               std::string* error = nullptr);

/// JSON string escaping (quotes included in the result).
std::string quote(std::string_view s);

/// One parsed request line.
struct Request {
  enum class Op { kSubmit, kCancel, kStats, kMetrics, kPing, kShutdown };
  Op op = Op::kPing;
  Job job;        // kSubmit
  JobId id = 0;   // kCancel
};

/// Parses a request line; nullopt + `error` on malformed/unknown input.
std::optional<Request> parse_request(const std::string& line,
                                     std::string* error);

/// Wire name of a backend ("interp" / "vm" / "jit").
[[nodiscard]] const char* backend_name(Backend b);

// -- request serializers (no trailing newline) ------------------------------
// The client-side half of the protocol: scripts, tests and a future
// `lolserve --client` build request lines with these instead of
// hand-rolling JSON. parse_request(request_line(r)) round-trips every
// field whose value survives the JSON number model (IEEE doubles: keep
// u64s below 2^53).
std::string submit_line(const Job& job);
std::string cancel_request_line(JobId id);
std::string request_line(const Request& req);

// -- line-framed socket IO (POSIX) ------------------------------------------
// The one implementation of NDJSON framing over a socket fd, shared by
// the daemon's connection loop and the lolserve --client tool.
#if !defined(_WIN32)

/// send()s the whole buffer (MSG_NOSIGNAL, EINTR-safe). False when the
/// peer is gone; callers treat that as connection teardown.
bool send_all(int fd, std::string_view data);

/// Incremental reader of newline-delimited frames from a socket.
/// next() blocks for the next line (CR stripped), returning nullopt on
/// EOF/error — or when a single line exceeds `max_line`, which also
/// sets line_too_long() so protocol servers can answer before closing.
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_line = 1u << 22)
      : fd_(fd), max_line_(max_line) {}

  std::optional<std::string> next();
  [[nodiscard]] bool line_too_long() const { return too_long_; }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buf_;
  bool too_long_ = false;
};

#endif  // !_WIN32

// -- event serializers (no trailing newline) --------------------------------
std::string accepted_line(JobId id, const Job& job);
std::string result_line(const JobResult& r);
std::string cancel_line(JobId id, bool ok);
std::string stats_line(const Service::Stats& s);
/// Prometheus text exposition wrapped into one NDJSON event (the
/// exposition itself is multi-line; the JSON string escapes it).
std::string metrics_line(std::string_view exposition);
std::string pong_line();
std::string bye_line();
std::string error_line(std::string_view message);

}  // namespace lol::service::wire
