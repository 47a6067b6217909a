#include "loadgen.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <queue>

#include "sse.hpp"

namespace servebench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double RequestRecord::mean_tpot_ms() const noexcept {
  if (token_ns.size() < 2) return 0.0;
  return static_cast<double>(token_ns.back() - token_ns.front()) / 1e6 /
         static_cast<double>(token_ns.size() - 1);
}

std::size_t PhaseResult::succeeded() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(requests.begin(), requests.end(),
                    [](const RequestRecord& r) { return r.ok(); }));
}

std::size_t PhaseResult::failed() const noexcept {
  return requests.size() - succeeded();
}

double PhaseResult::busy_rate(std::size_t connections) const noexcept {
  double busy_s = 0.0;
  for (const RequestRecord& r : requests) {
    if (r.done_ns > r.sent_ns) {
      busy_s += static_cast<double>(r.done_ns - r.sent_ns) / 1e9;
    }
  }
  if (busy_s <= 0.0) return 0.0;
  return static_cast<double>(succeeded()) * static_cast<double>(connections) /
         busy_s;
}

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

struct Due {
  std::uint64_t due_ns;
  std::uint64_t order;  ///< FIFO among equal due times.
  std::size_t session;
  bool operator>(const Due& o) const noexcept {
    return due_ns != o.due_ns ? due_ns > o.due_ns : order > o.order;
  }
};

struct SessionState {
  std::size_t next_turn = 0;
  std::vector<std::int32_t> next_prompt;
};

struct Conn {
  int fd = -1;
  std::size_t record = 0;
  std::string out;  ///< request bytes not yet written.
  bool connected = false;
  bool done_seen = false;
  ResponseParser parser;
};

class Generator {
 public:
  Generator(const Plan& plan, const LoadOptions& opt, PhaseResult& result)
      : plan_(plan), opt_(opt), result_(result),
        sessions_(plan.sessions.size()) {}

  void run() {
    const std::uint64_t start = result_.start_ns;
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(opt_.limit_s * 1e9);
    remaining_ = plan_.sessions.size();
    for (std::size_t i = 0; i < plan_.sessions.size(); ++i) {
      sessions_[i].next_prompt = first_prompt(plan_, plan_.sessions[i]);
    }
    if (opt_.open_loop) {
      for (std::size_t i = 0; i < plan_.sessions.size(); ++i) {
        schedule(i, start + static_cast<std::uint64_t>(
                                plan_.sessions[i].arrival_s * 1e9));
      }
    } else {
      while (next_closed_ < plan_.sessions.size() &&
             next_closed_ < opt_.connections) {
        schedule(next_closed_++, start);
      }
    }

    std::vector<pollfd> fds;
    while (remaining_ > 0) {
      std::uint64_t now = now_ns();
      if (now >= deadline) {
        abandon(now);
        break;
      }
      while (!due_.empty() && due_.top().due_ns <= now &&
             conns_.size() < opt_.connections) {
        const Due d = due_.top();
        due_.pop();
        launch(d.session, d.due_ns);
      }
      // Sleep until a socket is ready, the next request comes due (when a
      // connection is free for it), or the phase limit.
      std::uint64_t wake = deadline;
      if (!due_.empty() && conns_.size() < opt_.connections) {
        wake = std::min(wake, due_.top().due_ns);
      }
      fds.clear();
      for (const Conn& c : conns_) {
        short ev = POLLIN;
        if (!c.connected || !c.out.empty()) ev |= POLLOUT;
        fds.push_back(pollfd{c.fd, ev, 0});
      }
      now = now_ns();
      const std::uint64_t wait = wake > now ? wake - now : 0;
      timespec ts{static_cast<time_t>(wait / 1000000000ULL),
                  static_cast<long>(wait % 1000000000ULL)};
      const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (n < 0 && errno != EINTR) {
        abandon(now_ns());
        break;
      }
      if (n <= 0) continue;
      // Service ready sockets; finished connections are compacted out.
      std::size_t kept = 0;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        bool open = true;
        if (fds[i].revents != 0) open = service(conns_[i], fds[i].revents);
        if (open) {
          if (kept != i) conns_[kept] = std::move(conns_[i]);
          ++kept;
        }
      }
      conns_.resize(kept);
    }
    result_.end_ns = now_ns();
  }

 private:
  void schedule(std::size_t session, std::uint64_t due) {
    due_.push(Due{due, order_++, session});
  }

  void launch(std::size_t session, std::uint64_t due) {
    SessionState& st = sessions_[session];
    const Turn& turn = plan_.sessions[session].turns[st.next_turn];
    RequestRecord rec;
    rec.id = opt_.first_id + result_.requests.size();
    rec.session = session;
    rec.turn = st.next_turn;
    rec.prompt = std::move(st.next_prompt);
    rec.max_new = turn.max_new;
    rec.due_ns = due;
    rec.sent_ns = now_ns();
    result_.requests.push_back(std::move(rec));
    const std::size_t index = result_.requests.size() - 1;
    RequestRecord& r = result_.requests[index];

    Conn c;
    c.record = index;
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      fail(r, std::string("socket: ") + std::strerror(errno));
      return;
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const sockaddr_in addr = loopback(opt_.port);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      c.connected = true;
    } else if (errno != EINPROGRESS) {
      fail(r, std::string("connect: ") + std::strerror(errno));
      ::close(c.fd);
      return;
    }
    c.out = generate_request(r.prompt, r.max_new);
    conns_.push_back(std::move(c));
  }

  /// Handles poll events; returns false once the connection is closed.
  bool service(Conn& c, short revents) {
    RequestRecord& r = result_.requests[c.record];
    if (!c.connected) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) return close(c, std::string("connect: ") + std::strerror(err));
      if ((revents & POLLOUT) == 0) return true;
      c.connected = true;
    }
    if (!c.out.empty() && (revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        return close(c, std::string("send: ") + std::strerror(errno));
      }
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) return true;
    char buf[65536];
    std::vector<SseEvent> events;
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      const std::uint64_t t = now_ns();
      if (n > 0) {
        events.clear();
        c.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                      events);
        for (const SseEvent& ev : events) on_event(c, r, ev, t);
        continue;
      }
      if (n == 0) return finish(c, r, t);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return close(c, std::string("read: ") + std::strerror(errno));
    }
  }

  void on_event(Conn& c, RequestRecord& r, const SseEvent& ev,
                std::uint64_t t) {
    if (!r.error.empty()) return;
    if (ev.event == "token") {
      const auto tok = parse_token_event(ev.data);
      if (!tok || tok->index != r.output.size()) {
        r.error = "token event out of order";
        return;
      }
      if (r.output.empty()) r.first_ns = t;
      r.output.push_back(tok->token);
      r.token_ns.push_back(t);
    } else if (ev.event == "done") {
      const auto done = parse_done_event(ev.data);
      c.done_seen = true;
      if (!done) {
        r.error = "malformed done event";
      } else if (done->status != "FINISHED") {
        r.error = "status " + done->status;
      } else if (done->tokens != r.output.size() ||
                 r.output.size() != r.max_new) {
        r.error = "stream length " + std::to_string(r.output.size()) +
                  " (done says " + std::to_string(done->tokens) +
                  ", asked " + std::to_string(r.max_new) + ")";
      }
    }
  }

  /// End of stream: validates what was received and closes.
  bool finish(Conn& c, RequestRecord& r, std::uint64_t t) {
    r.http_status = c.parser.status();
    std::string error = r.error;
    if (error.empty()) {
      if (c.parser.failed() || !c.parser.head_done()) {
        error = "malformed response head";
      } else if (c.parser.status() != 200) {
        const auto body = parse_error_body(c.parser.body());
        error = "http " + std::to_string(c.parser.status()) + " " +
                (body ? body->code : std::string("(unstructured body)"));
      } else if (!c.done_seen) {
        error = "stream ended without done";
      }
    }
    r.done_ns = t;
    return close(c, error);
  }

  bool close(Conn& c, const std::string& error) {
    RequestRecord& r = result_.requests[c.record];
    if (r.done_ns == 0) r.done_ns = now_ns();
    r.error = error;
    ::close(c.fd);
    c.fd = -1;
    turn_ended(r);
    return false;
  }

  void fail(RequestRecord& r, const std::string& error) {
    r.error = error;
    r.done_ns = now_ns();
    turn_ended(r);
  }

  void turn_ended(const RequestRecord& r) {
    SessionState& st = sessions_[r.session];
    const Session& s = plan_.sessions[r.session];
    ++st.next_turn;
    if (r.ok() && st.next_turn < s.turns.size()) {
      const Turn& turn = s.turns[st.next_turn];
      st.next_prompt = next_prompt(r.prompt, r.output, turn.fresh);
      schedule(r.session,
               r.done_ns + static_cast<std::uint64_t>(turn.think_s * 1e9));
      return;
    }
    --remaining_;
    if (!opt_.open_loop && next_closed_ < plan_.sessions.size()) {
      schedule(next_closed_++, r.done_ns);
    }
  }

  /// Phase limit reached: open streams fail, nothing more is sent.
  void abandon(std::uint64_t now) {
    for (Conn& c : conns_) {
      RequestRecord& r = result_.requests[c.record];
      r.error = "timeout";
      r.done_ns = now;
      ::close(c.fd);
    }
    conns_.clear();
  }

  const Plan& plan_;
  const LoadOptions& opt_;
  PhaseResult& result_;
  std::vector<SessionState> sessions_;
  std::vector<Conn> conns_;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due_;
  std::uint64_t order_ = 0;
  std::size_t next_closed_ = 0;
  std::size_t remaining_ = 0;
};

}  // namespace

PhaseResult run_phase(const std::string& name, const Plan& plan,
                      const LoadOptions& opt) {
  PhaseResult result;
  result.name = name;
  result.start_ns = now_ns();
  Generator gen(plan, opt, result);
  gen.run();
  return result;
}

int http_get(std::uint16_t port, const std::string& target,
             std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  const sockaddr_in addr = loopback(port);
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return 0;
  }
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return 0;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || head_end == std::string::npos) {
    return 0;
  }
  body = raw.substr(head_end + 4);
  const std::size_t sp = raw.find(' ');
  return std::atoi(raw.c_str() + sp + 1);
}

}  // namespace servebench
