// Client side of POST /v1/generate: an incremental parser for the HTTP
// response head, the SSE event stream of a 200 answer and the structured
// {"error":{"code":…,"message":…}} body of any other status.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

/// One complete Server-Sent Event.
struct SseEvent {
  std::string event;
  std::string data;
};

class ResponseParser {
 public:
  /// Feeds bytes as read from the socket (any split). Complete SSE events
  /// of a 200 response are appended to `events`.
  void feed(std::string_view bytes, std::vector<SseEvent>& events);

  bool head_done() const noexcept { return head_done_; }
  /// HTTP status code, 0 until the status line has been read.
  int status() const noexcept { return status_; }
  /// Body bytes of a non-200 response read so far.
  const std::string& body() const noexcept { return body_; }
  /// The head was malformed.
  bool failed() const noexcept { return failed_; }

 private:
  void parse_events(std::vector<SseEvent>& events);

  std::string buf_;
  std::string body_;
  bool head_done_ = false;
  bool failed_ = false;
  int status_ = 0;
};

/// Payload of a `token` event: {"index":i,"token":t}.
struct TokenEvent {
  std::size_t index = 0;
  std::int32_t token = 0;
};
std::optional<TokenEvent> parse_token_event(std::string_view data);

/// Payload of the terminal `done` event.
struct DoneEvent {
  std::string status;  ///< FINISHED / CANCELLED / DEADLINE_EXCEEDED.
  std::size_t tokens = 0;
};
std::optional<DoneEvent> parse_done_event(std::string_view data);

/// A non-200 body in the server's error schema.
struct ErrorBody {
  std::string code;
  std::string message;
};
std::optional<ErrorBody> parse_error_body(std::string_view body);

/// The POST /v1/generate request for `prompt`.
std::string generate_request(const std::vector<std::int32_t>& prompt,
                             std::size_t max_new_tokens);

}  // namespace servebench
