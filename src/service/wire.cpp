#include "service/wire.hpp"

#if !defined(_WIN32)
#include <sys/socket.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "driver/cli.hpp"
#include "service/run_request.hpp"

namespace lol::service::wire {

namespace {

constexpr int kMaxDepth = 32;

/// Cursor over the input with one-token-lookahead helpers.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    char c = text[pos];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': out.kind = Json::Kind::kString; return parse_string(out.str);
      case 't':
        if (text.substr(pos, 4) == "true") {
          pos += 4;
          out.kind = Json::Kind::kBool;
          out.b = true;
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (text.substr(pos, 5) == "false") {
          pos += 5;
          out.kind = Json::Kind::kBool;
          out.b = false;
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (text.substr(pos, 4) == "null") {
          pos += 4;
          out.kind = Json::Kind::kNull;
          return true;
        }
        return fail("bad literal");
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return fail("expected string");
    out.clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return fail("dangling escape");
      char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("bad \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences — good enough for a wire
          // format whose payloads are LOLCODE text).
          if (v < 0x80) {
            out += static_cast<char>(v);
          } else if (v < 0x800) {
            out += static_cast<char>(0xC0 | (v >> 6));
            out += static_cast<char>(0x80 | (v & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (v >> 12));
            out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (v & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Json& out) {
    skip_ws();
    std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return fail("expected value");
    std::string num(text.substr(start, pos - start));
    char* end = nullptr;
    double v = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return fail("bad number");
    out.kind = Json::Kind::kNumber;
    out.num = v;
    out.str = std::move(num);
    return true;
  }

  bool parse_array(Json& out, int depth) {
    out.kind = Json::Kind::kArray;
    if (!eat('[')) return fail("expected array");
    if (eat(']')) return true;
    for (;;) {
      Json v;
      if (!parse_value(v, depth + 1)) return false;
      out.arr.push_back(std::move(v));
      if (eat(',')) continue;
      if (eat(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json& out, int depth) {
    out.kind = Json::Kind::kObject;
    if (!eat('{')) return fail("expected object");
    if (eat('}')) return true;
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      if (!eat(':')) return fail("expected ':'");
      Json v;
      if (!parse_value(v, depth + 1)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      if (eat(',')) continue;
      if (eat('}')) return true;
      return fail("expected ',' or '}'");
    }
  }
};

using Op = Request::Op;
constexpr std::pair<const char*, Op> kOps[] = {
    {"submit", Op::kSubmit}, {"cancel", Op::kCancel},
    {"stats", Op::kStats},   {"metrics", Op::kMetrics},
    {"ping", Op::kPing},     {"shutdown", Op::kShutdown}};

/// A member as the request wrote it (a number's literal, a string
/// quoted), so a value of the wrong JSON type fails in its parser with
/// the quotes shown: `"n_pes":"2"` is "bad n_pes '"2"' ...".
std::string as_written(const Json& v) {
  switch (v.kind) {
    case Json::Kind::kNull: return "null";
    case Json::Kind::kBool: return v.b ? "true" : "false";
    case Json::Kind::kNumber: return v.str;
    case Json::Kind::kString: return quote(v.str);
    case Json::Kind::kArray: return "[...]";
    case Json::Kind::kObject: return "{...}";
  }
  return "";
}

/// Hands member `key`, when present, to `set(value, key)`. The value is
/// a string's text when `string`, else a number's literal (so integers
/// decode exactly from their digits); a value of another JSON type goes
/// as written. False + `*error` when the value is refused.
template <class Set>
bool member(const Json& doc, std::string_view key, bool string, Set set,
            std::string* error) {
  const Json* v = doc.find(key);
  if (v == nullptr) return true;
  const bool typed = v->is(string ? Json::Kind::kString : Json::Kind::kNumber);
  const std::string value = typed ? v->str : as_written(*v);
  *error = set(value, key);
  // A numeric parser refuses every non-number; free text (a trace) takes
  // anything, so a string member checks its type after the parser.
  if (error->empty() && !typed) {
    *error = driver::bad_value(key, value, "a string");
  }
  return error->empty();
}

auto text_into(std::string* out) {
  return [out](const std::string& v, std::string_view) {
    *out = v;
    return std::string();
  };
}

auto u64_into(std::uint64_t* out) {
  return [out](const std::string& v, std::string_view key) {
    auto n = driver::parse_uint(v);
    if (n) *out = *n;
    return n ? "" : driver::bad_value(key, v, "an unsigned 64-bit integer");
  };
}

bool parse_submit(const Json& doc, Job& job, std::string* error) {
  const Json* src = doc.find("source");
  if (src == nullptr || !src->is(Json::Kind::kString)) {
    *error = "submit requires a string 'source'";
    return false;
  }
  job.source = src->str;
  job.name = "anonymous";
  std::string schedule = "none";
  if (!member(doc, "name", true, text_into(&job.name), error) ||
      !member(doc, "tenant", true, text_into(&job.tenant), error) ||
      !member(doc, "schedule", true, text_into(&schedule), error) ||
      !member(doc, "deadline_ms", false, u64_into(&job.deadline_ms), error)) {
    return false;
  }
  // The run knobs go through the parsers the CLI flags use; the service
  // clamps n_pes to its max_pes afterwards.
  for (const Knob& k : knobs()) {
    auto set = [&](const std::string& v, auto key) {
      return k.set(job, v, key);
    };
    if (!member(doc, k.key, k.text, set, error)) return false;
  }
  if (const Json* lines = doc.find("stdin"); lines != nullptr) {
    bool ok = lines->is(Json::Kind::kArray);
    for (const Json& l : lines->arr) {
      ok = ok && l.is(Json::Kind::kString);
      if (ok) job.stdin_lines.push_back(l.str);
    }
    if (!ok) {
      *error = driver::bad_value("stdin", as_written(*lines),
                                 "an array of strings");
      return false;
    }
  }
  // The replay trace itself is checked when the job resolves.
  using replay::ScheduleMode;
  for (ScheduleMode m : {ScheduleMode::kNone, ScheduleMode::kRecord,
                         ScheduleMode::kPerturb, ScheduleMode::kReplay}) {
    if (schedule == replay::to_string(m)) {
      job.schedule = m;
      return true;
    }
  }
  *error = "unknown schedule '" + schedule + "'";
  return false;
}

bool parse_op(const Json& doc, Request& req, std::string* error) {
  std::string op;
  if (!member(doc, "op", true, text_into(&op), error)) return false;
  auto it = std::find_if(std::begin(kOps), std::end(kOps),
                         [&op](const auto& o) { return op == o.first; });
  if (it == std::end(kOps)) {
    *error = "unknown op '" + op + "'";
    return false;
  }
  req.op = it->second;
  if (req.op == Op::kSubmit) return parse_submit(doc, req.job, error);
  if (req.op != Op::kCancel) return true;
  if (!member(doc, "id", false, u64_into(&req.id), error)) return false;
  if (req.id == 0) *error = "cancel requires a nonzero integer 'id'";
  return req.id != 0;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ',';
    out += quote(items[i]);
  }
  out += ']';
  return out;
}

std::string fmt_ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

const Json* Json::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<Json> parse_json(std::string_view text, std::string* error) {
  Parser p{text};
  Json out;
  if (!p.parse_value(out, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) *error = "trailing characters after JSON value";
    return std::nullopt;
  }
  return out;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::optional<Request> parse_request(const std::string& line,
                                     std::string* error) {
  std::string err;
  Request req;
  auto doc = parse_json(line, &err);
  if (doc && !doc->is(Json::Kind::kObject)) {
    err = "request must be a JSON object";
  } else if (doc && parse_op(*doc, req, &err)) {
    return req;
  }
  if (error != nullptr) *error = std::move(err);
  return std::nullopt;
}

#if !defined(_WIN32)

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::optional<std::string> LineReader::next() {
  for (;;) {
    std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (buf_.size() > max_line_) {
      // A multi-MiB line with no newline is not a protocol client.
      too_long_ = true;
      return std::nullopt;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;  // peer closed (or socket shut down)
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

#endif  // !_WIN32

std::string submit_line(const Job& job) {
  std::string out = "{\"op\":\"submit\",\"name\":" + quote(job.name) +
                    ",\"source\":" + quote(job.source) +
                    ",\"tenant\":" + quote(job.tenant);
  for (const Knob& k : knobs()) {
    const std::string v = k.get(job);
    out += ",\"" + std::string(k.key) + "\":" + (k.text ? quote(v) : v);
  }
  return out + ",\"deadline_ms\":" + std::to_string(job.deadline_ms) +
         ",\"schedule\":\"" + replay::to_string(job.schedule) + "\"" +
         ",\"stdin\":" + json_array(job.stdin_lines) + "}";
}

std::string cancel_request_line(JobId id) {
  return "{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}";
}

std::string request_line(const Request& req) {
  if (req.op == Op::kSubmit) return submit_line(req.job);
  if (req.op == Op::kCancel) return cancel_request_line(req.id);
  auto it = std::find_if(std::begin(kOps), std::end(kOps),
                         [&req](const auto& o) { return req.op == o.second; });
  return "{\"op\":\"" + std::string(it->first) + "\"}";
}

std::string accepted_line(JobId id, const Job& job) {
  return "{\"event\":\"accepted\",\"id\":" + std::to_string(id) +
         ",\"name\":" + quote(job.name) +
         ",\"tenant\":" + quote(job.tenant) + "}";
}

std::string result_line(const JobResult& r) {
  std::string out = "{\"event\":\"done\",\"id\":" + std::to_string(r.id) +
                    ",\"name\":" + quote(r.name) +
                    ",\"tenant\":" + quote(r.tenant) + ",\"status\":\"" +
                    to_string(r.status) + "\",\"error\":" + quote(r.error) +
                    ",\"cached\":" + (r.compile_cache_hit ? "true" : "false") +
                    ",\"queue_ms\":" + fmt_ms(r.queue_ms) +
                    ",\"run_ms\":" + fmt_ms(r.run_ms) + ",\"trace\":[";
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const TraceSpan& sp = r.trace[i];
    if (i != 0) out += ',';
    out += "{\"span\":" + quote(sp.name) +
           ",\"start_ms\":" + fmt_ms(sp.start_ms) +
           ",\"dur_ms\":" + fmt_ms(sp.dur_ms) + "}";
  }
  out += "],\"output\":" + json_array(r.pe_output) +
         ",\"errout\":" + json_array(r.pe_errout);
  if (!r.schedule_trace.empty()) {
    out += ",\"sched_trace\":" + quote(r.schedule_trace);
  }
  if (!r.tuned.empty()) {
    out += ",\"tuned\":" + quote(r.tuned);
  }
  out += "}";
  return out;
}

std::string cancel_line(JobId id, bool ok) {
  return "{\"event\":\"cancel\",\"id\":" + std::to_string(id) +
         ",\"ok\":" + (ok ? "true" : "false") + "}";
}

std::string stats_line(const Service::Stats& s) {
  auto n = [](std::uint64_t v) { return std::to_string(v); };
  return "{\"event\":\"stats\",\"submitted\":" + n(s.submitted) +
         ",\"completed\":" + n(s.completed) + ",\"ok\":" + n(s.ok) +
         ",\"compile_errors\":" + n(s.compile_errors) +
         ",\"runtime_errors\":" + n(s.runtime_errors) +
         ",\"step_limited\":" + n(s.step_limited) +
         ",\"deadline_exceeded\":" + n(s.deadline_exceeded) +
         ",\"cancelled\":" + n(s.cancelled) +
         ",\"rejected\":" + n(s.rejected) +
         ",\"quota_rejected\":" + n(s.quota_rejected) +
         ",\"pe_failed\":" + n(s.pe_failed) +
         ",\"replay_diverged\":" + n(s.replay_diverged) +
         ",\"cache_hits\":" + n(s.cache.hits) +
         ",\"cache_misses\":" + n(s.cache.misses) +
         ",\"cache_evictions\":" + n(s.cache.evictions) + "}";
}

std::string metrics_line(std::string_view exposition) {
  return "{\"event\":\"metrics\",\"text\":" + quote(exposition) + "}";
}

std::string pong_line() { return "{\"event\":\"pong\"}"; }

std::string bye_line() { return "{\"event\":\"bye\"}"; }

std::string error_line(std::string_view message) {
  return "{\"event\":\"error\",\"message\":" + quote(message) + "}";
}

}  // namespace lol::service::wire
