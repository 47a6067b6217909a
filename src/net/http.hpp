// Minimal HTTP/1.1 surface for the serving front-end: an incremental
// request parser (request line + headers + Content-Length body — enough
// for curl and the loopback bench; no chunked encoding, no pipelining),
// response serialization, Server-Sent Events framing, and the tiny flat-
// JSON field extractors the /v1/generate body needs (kept dependency-free
// on purpose: the container bakes in no JSON library).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lserve::net {

/// One parsed request.
struct HttpRequest {
  std::string method;
  std::string target;   ///< origin-form, e.g. "/v1/generate".
  std::string version;  ///< "HTTP/1.1".
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* header(std::string_view name) const noexcept;
};

/// Incremental parser: feed() bytes as they arrive; kComplete exposes
/// request(). One parser parses one request (reset() to reuse the
/// connection).
class HttpParser {
 public:
  enum class State { kHeaders, kBody, kComplete, kError };

  struct Limits {
    std::size_t max_header_bytes = 16 * 1024;
    std::size_t max_body_bytes = 1024 * 1024;
  };

  HttpParser() = default;
  explicit HttpParser(Limits limits) : limits_(limits) {}

  /// Appends `data` and advances the state machine. Returns the state
  /// after consuming all of `data`; once kComplete or kError, further
  /// feed() calls are no-ops.
  State feed(std::string_view data);

  State state() const noexcept { return state_; }
  bool complete() const noexcept { return state_ == State::kComplete; }
  bool failed() const noexcept { return state_ == State::kError; }
  /// Valid once complete().
  const HttpRequest& request() const noexcept { return req_; }
  /// Human-readable parse failure (valid once failed()).
  const std::string& error() const noexcept { return error_; }

  void reset();

 private:
  void fail(std::string message);

  Limits limits_;
  State state_ = State::kHeaders;
  std::string buf_;  ///< unconsumed bytes (head section, then body).
  std::size_t body_expected_ = 0;
  HttpRequest req_;
  std::string error_;
};

/// Serializes a non-streaming response with Content-Length and
/// Connection: close.
std::string http_response(int status, std::string_view reason,
                          std::string_view content_type,
                          std::string_view body);

/// Response head that switches the connection into an SSE stream
/// (text/event-stream, no Content-Length; the stream ends when the server
/// closes the connection after the terminal event).
std::string sse_response_head();

/// One SSE frame: "event: <event>\ndata: <data>\n\n".
std::string sse_event(std::string_view event, std::string_view data);

// --- Flat-JSON field extraction -------------------------------------------
// The /v1/generate body is a flat object of integer and integer-array
// fields. These helpers scan for `"key"` at the top level and parse the
// value; they accept arbitrary whitespace and ignore unknown keys, and
// return nullopt for a missing key or a value of the wrong shape.

std::optional<std::int64_t> json_find_int(std::string_view body,
                                          std::string_view key);
std::optional<std::vector<std::int32_t>> json_find_int_array(
    std::string_view body, std::string_view key);

}  // namespace lserve::net
