#include "sse.hpp"

#include <cstdlib>

#include "net/http.hpp"

namespace servebench {

namespace {

/// The string value of a `"key":"value"` pair (no escapes).
std::optional<std::string> json_find_string(std::string_view body,
                                            std::string_view key) {
  std::string quoted(1, '"');
  quoted.append(key);
  quoted += '"';
  std::size_t pos = body.find(quoted);
  if (pos == std::string_view::npos) return std::nullopt;
  pos += quoted.size();
  while (pos < body.size() && (body[pos] == ' ' || body[pos] == ':')) ++pos;
  if (pos >= body.size() || body[pos] != '"') return std::nullopt;
  const std::size_t close = body.find('"', pos + 1);
  if (close == std::string_view::npos) return std::nullopt;
  return std::string(body.substr(pos + 1, close - pos - 1));
}

}  // namespace

void ResponseParser::feed(std::string_view bytes,
                          std::vector<SseEvent>& events) {
  if (failed_) return;
  if (head_done_ && status_ != 200) {
    body_.append(bytes);
    return;
  }
  buf_.append(bytes);
  if (!head_done_) {
    const std::size_t end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) return;
    // "HTTP/1.1 200 OK": the code follows the first space.
    const std::size_t sp = buf_.find(' ');
    if (buf_.compare(0, 5, "HTTP/") != 0 || sp == std::string::npos ||
        sp > end) {
      failed_ = true;
      return;
    }
    status_ = std::atoi(buf_.c_str() + sp + 1);
    if (status_ < 100 || status_ > 599) {
      failed_ = true;
      return;
    }
    head_done_ = true;
    buf_.erase(0, end + 4);
    if (status_ != 200) {
      body_ = std::move(buf_);
      buf_.clear();
      return;
    }
  }
  parse_events(events);
}

void ResponseParser::parse_events(std::vector<SseEvent>& events) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = buf_.find("\n\n", start);
    if (end == std::string::npos) break;
    SseEvent ev;
    std::string_view block(buf_.data() + start, end - start);
    while (!block.empty()) {
      const std::size_t nl = block.find('\n');
      std::string_view line = block.substr(0, nl);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.starts_with("event:")) {
        line.remove_prefix(6);
        if (line.starts_with(' ')) line.remove_prefix(1);
        ev.event.assign(line);
      } else if (line.starts_with("data:")) {
        line.remove_prefix(5);
        if (line.starts_with(' ')) line.remove_prefix(1);
        if (!ev.data.empty()) ev.data += '\n';
        ev.data.append(line);
      }
      if (nl == std::string_view::npos) break;
      block.remove_prefix(nl + 1);
    }
    events.push_back(std::move(ev));
    start = end + 2;
  }
  buf_.erase(0, start);
}

std::optional<TokenEvent> parse_token_event(std::string_view data) {
  const auto index = lserve::net::json_find_int(data, "index");
  const auto token = lserve::net::json_find_int(data, "token");
  if (!index || !token || *index < 0) return std::nullopt;
  return TokenEvent{static_cast<std::size_t>(*index),
                    static_cast<std::int32_t>(*token)};
}

std::optional<DoneEvent> parse_done_event(std::string_view data) {
  auto status = json_find_string(data, "status");
  const auto tokens = lserve::net::json_find_int(data, "tokens");
  if (!status || !tokens || *tokens < 0) return std::nullopt;
  return DoneEvent{std::move(*status), static_cast<std::size_t>(*tokens)};
}

std::optional<ErrorBody> parse_error_body(std::string_view body) {
  const std::size_t err = body.find("\"error\"");
  if (err == std::string_view::npos) return std::nullopt;
  const std::string_view inner = body.substr(err + 7);
  auto code = json_find_string(inner, "code");
  auto message = json_find_string(inner, "message");
  if (!code || !message) return std::nullopt;
  return ErrorBody{std::move(*code), std::move(*message)};
}

std::string generate_request(const std::vector<std::int32_t>& prompt,
                             std::size_t max_new_tokens) {
  std::string body = "{\"prompt\":[";
  for (std::size_t i = 0; i < prompt.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(prompt[i]);
  }
  body += "],\"max_new_tokens\":" + std::to_string(max_new_tokens) + "}";
  return "POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

}  // namespace servebench
