// net.cpp — the serve_daemon child, raw framed connections, the open- and
// closed-loop load generators, and daemon trace collection.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "serve/net/client.hpp"
#include "serve/net/frame.hpp"

namespace pb {

using liquid3d::WireRequest;
using liquid3d::WireResponse;

// -- Daemon --------------------------------------------------------------------

Daemon::Daemon(const std::string& binary, bool traced) {
  int pipe_fd[2];
  if (::pipe(pipe_fd) != 0) throw std::runtime_error("pipe() failed");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    // Die with the benchmark, whatever happens to it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fd[1], STDOUT_FILENO);
    ::close(pipe_fd[0]);
    ::close(pipe_fd[1]);
    if (traced) {
      ::setenv("LIQUID3D_TRACE", "1", 1);
    } else {
      ::unsetenv("LIQUID3D_TRACE");
    }
    ::execl(binary.c_str(), binary.c_str(), "--listen", "127.0.0.1:0",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipe_fd[1]);
  out_fd_ = pipe_fd[0];
  // Wait for `listening HOST:PORT` (30 s budget).
  std::string buf;
  const double deadline = now_s() + 30.0;
  for (;;) {
    const auto nl = buf.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.rfind("listening ", 0) == 0) {
        ep_ = liquid3d::parse_endpoint(line.substr(10), "daemon endpoint");
        return;
      }
      continue;
    }
    const double left = deadline - now_s();
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      stop();
      throw std::runtime_error("serve_daemon did not report listening");
    }
    char chunk[256];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n <= 0) {
      stop();
      throw std::runtime_error("serve_daemon exited before listening");
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

Daemon::~Daemon() { stop(); }

int Daemon::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGCONT);  // in case a self-test left it stopped
  ::kill(pid_, SIGTERM);
  int status = 0;
  const double deadline = now_s() + 20.0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    // Keep the stdout pipe drained so the drain summary never blocks it.
    char chunk[256];
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 10) > 0) {
      [[maybe_unused]] const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    }
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

// -- Conn ----------------------------------------------------------------------

Conn::Conn(const liquid3d::Endpoint& ep)
    : fd_(liquid3d::connect_socket(ep)) {}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::send(const WireRequest& req) {
  liquid3d::send_frame(fd_, liquid3d::encode_request(req));
}

WireResponse Conn::recv() {
  const std::optional<std::string> frame = liquid3d::recv_frame(fd_);
  if (!frame) throw std::runtime_error("daemon closed the connection");
  return liquid3d::decode_response(*frame);
}

// -- Open loop -----------------------------------------------------------------

namespace {

void fill_outcome(SteadyOutcome& o, WireResponse& resp) {
  if (auto* a = std::get_if<SteadyAnswer>(&resp.payload)) {
    o.ok = true;
    o.answer = std::move(*a);
  } else if (const auto* e = std::get_if<liquid3d::ErrorReply>(&resp.payload)) {
    o.error = std::string(liquid3d::to_string(e->code)) + ": " + e->message;
  } else {
    o.error = "unexpected reply type";
  }
}

/// One open-loop connection: sends queries c, c + conns, ... at their due
/// times and receives whatever replies arrive in between.
void drive_connection(Conn& link, std::size_t c, std::size_t conns,
                      std::size_t total, double t0, double rate_qps,
                      double give_up, const std::vector<SteadyQuery>& queries,
                      OpenLoopResult& res, std::atomic<std::size_t>& sent) {
  const auto due_at = [&](std::size_t k) {
    return t0 + static_cast<double>(k) / rate_qps;
  };
  std::size_t next = c;  // next query this connection sends
  std::size_t pending = 0;
  std::size_t answered = 0;
  const std::size_t mine = total > c ? (total - c + conns - 1) / conns : 0;
  while (answered < mine) {
    const double now = now_s();
    if (now > give_up) return;
    if (next < total && now >= due_at(next)) {
      WireRequest req;
      req.id = next + 1;
      req.payload = queries[res.outcomes[next].index];
      res.outcomes[next].lateness_us = (now_s() - due_at(next)) * 1e6;
      link.send(req);
      ++pending;
      sent.fetch_add(1, std::memory_order_relaxed);
      next += conns;
      continue;
    }
    const double wait_s = (next < total ? due_at(next) : give_up) - now;
    if (pending == 0) {
      // Nothing to receive: sleep to the due time.
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
      continue;
    }
    pollfd pfd{link.fd(), POLLIN, 0};
    const timespec ts{static_cast<time_t>(wait_s),
                      static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
    WireResponse resp = link.recv();
    const double got = now_s();
    if (resp.id == 0 || resp.id > total) continue;
    SteadyOutcome& o = res.outcomes[resp.id - 1];
    o.latency_us = (got - due_at(resp.id - 1)) * 1e6;
    fill_outcome(o, resp);
    --pending;
    ++answered;
  }
}

}  // namespace

OpenLoopResult run_open_loop(const liquid3d::Endpoint& ep,
                             const std::vector<SteadyQuery>& queries,
                             std::size_t first, double rate_qps,
                             double seconds, std::size_t conns) {
  const auto total = static_cast<std::size_t>(std::floor(seconds * rate_qps));
  OpenLoopResult res;
  res.outcomes.resize(total);
  for (std::size_t k = 0; k < total; ++k) {
    res.outcomes[k].index = (first + k) % queries.size();
    res.outcomes[k].full = queries[res.outcomes[k].index].force_full;
  }
  // Connections open before the clock starts.
  std::vector<std::unique_ptr<Conn>> links;
  for (std::size_t c = 0; c < conns; ++c) {
    links.push_back(std::make_unique<Conn>(ep));
  }
  const double t0 = now_s() + 0.01;
  const double give_up = t0 + seconds + 10.0;
  std::atomic<std::size_t> sent{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      try {
        drive_connection(*links[c], c, conns, total, t0, rate_qps, give_up,
                         queries, res, sent);
      } catch (const std::exception&) {
        // A dropped connection leaves its unanswered queries "no reply".
      }
    });
  }
  for (std::thread& t : threads) t.join();
  res.sent = sent.load();
  for (SteadyOutcome& o : res.outcomes) {
    if (!o.ok && o.error.empty()) o.error = "no reply";
  }
  return res;
}

// -- Closed loops --------------------------------------------------------------

ClosedLoopResult run_closed_steady(const liquid3d::Endpoint& ep,
                                   const std::vector<SteadyQuery>& queries,
                                   std::size_t first, double seconds,
                                   std::size_t conns) {
  std::atomic<std::size_t> cursor{first};
  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> errors{0};
  std::vector<std::unique_ptr<liquid3d::ServeClient>> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<liquid3d::ServeClient>(ep));
  }
  const double t0 = now_s();
  const double end = t0 + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      while (now_s() < end) {
        const SteadyQuery& q = queries[cursor.fetch_add(1) % queries.size()];
        try {
          (void)clients[c]->steady(q);
          answered.fetch_add(1);
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return {answered.load(), errors.load(), now_s() - t0};
}

// -- Closed-loop sessions ------------------------------------------------------

std::vector<SessionOutcomeRecord> run_closed_sessions(
    const liquid3d::Endpoint& ep, const std::vector<SessionRequest>& reqs,
    std::size_t clients, double seconds) {
  std::atomic<std::size_t> cursor{0};
  std::mutex mu;
  std::vector<SessionOutcomeRecord> out;
  const double end = now_s() + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      liquid3d::ServeClient client(ep);
      while (now_s() < end) {
        SessionOutcomeRecord rec;
        rec.index = cursor.fetch_add(1) % reqs.size();
        const SessionRequest& r = reqs[rec.index];
        const double t = now_s();
        try {
          rec.outcome = r.replay ? client.replay(r.query)
                                 : client.what_if(r.query.base);
          rec.ok = true;
        } catch (const std::exception& e) {
          rec.error = e.what();
        }
        rec.done_s = now_s();
        rec.latency_ms = (rec.done_s - t) * 1e3;
        if (!rec.ok) {
          // Back off like a real client instead of spinning on rejections.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        std::lock_guard<std::mutex> lock(mu);
        out.push_back(std::move(rec));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

// -- Trace collection ----------------------------------------------------------

struct TraceCollector::Impl {
  explicit Impl(const liquid3d::Endpoint& ep) : client(ep) {}
  void poll_once() {
    for (liquid3d::obs::TraceSpan& s : client.trace(0)) {
      seen.emplace(s.span_id, std::move(s));
    }
  }
  liquid3d::ServeClient client;
  std::unordered_map<std::uint32_t, liquid3d::obs::TraceSpan> seen;
  std::atomic<bool> stop{false};
  std::thread thread;
};

TraceCollector::TraceCollector(const liquid3d::Endpoint& ep)
    : impl_(std::make_unique<Impl>(ep)) {}

TraceCollector::~TraceCollector() {
  impl_->stop = true;
  if (impl_->thread.joinable()) impl_->thread.join();
}

void TraceCollector::start() {
  impl_->thread = std::thread([this] {
    while (!impl_->stop.load()) {
      impl_->poll_once();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
}

std::vector<liquid3d::obs::TraceSpan> TraceCollector::finish() {
  impl_->stop = true;
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->poll_once();
  std::vector<liquid3d::obs::TraceSpan> out;
  out.reserve(impl_->seen.size());
  for (auto& [id, s] : impl_->seen) out.push_back(s);
  return out;
}

StageDists stage_dists(const std::vector<liquid3d::obs::TraceSpan>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const liquid3d::obs::TraceSpan*>>
      by_trace;
  for (const auto& s : spans) by_trace[s.trace_id].push_back(&s);
  StageDists out;
  for (const auto& [trace, list] : by_trace) {
    std::string cls;
    for (const auto* s : list) {
      if (s->stage.rfind("solve/", 0) == 0) cls = s->stage.substr(6);
    }
    if (cls.empty()) continue;  // rejected or truncated by the ring
    for (const auto* s : list) {
      const std::string stage =
          s->stage.rfind("solve/", 0) == 0 ? "solve" : s->stage;
      out[cls][stage].add(
          static_cast<double>(s->end_ns - s->start_ns) * 1e-3);
    }
  }
  return out;
}

}  // namespace pb
