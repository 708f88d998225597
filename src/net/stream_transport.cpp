#include "net/stream_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "common/assert.h"

namespace icollect::net {

namespace detail {

/// Level-triggered epoll: interest is registered once per change, and a
/// wait costs O(ready) however many fds are watched.
class Epoll {
 public:
  Epoll() : fd_{::epoll_create1(EPOLL_CLOEXEC)} {
    if (fd_ < 0) throw std::runtime_error("tcp: epoll_create1 failed");
  }
  ~Epoll() { ::close(fd_); }

  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  /// Move `fd` from EPOLLIN/EPOLLOUT mask `was` to `want` (0 = not
  /// watched); `key` comes back with each readiness report.
  void watch(int fd, NodeId key, std::uint32_t was, std::uint32_t want) {
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = key;
    const int op = was == 0    ? EPOLL_CTL_ADD
                   : want == 0 ? EPOLL_CTL_DEL
                               : EPOLL_CTL_MOD;
    ::epoll_ctl(fd_, op, fd, &ev);
  }

  /// Wait up to `timeout_ms` for ready fds. An interrupted wait (EINTR)
  /// reports nothing. The span is valid until the next wait.
  std::span<const epoll_event> wait(int timeout_ms) {
    const int n = ::epoll_wait(fd_, batch_.data(),
                               static_cast<int>(batch_.size()), timeout_ms);
    return {batch_.data(), n > 0 ? static_cast<std::size_t>(n) : 0U};
  }

 private:
  int fd_;
  std::array<epoll_event, 256> batch_{};
};

}  // namespace detail

namespace {

// Consumed send-queue prefix beyond which flush_outq compacts instead
// of waiting for a full drain (same rule as wire::FrameDecoder::feed).
constexpr std::size_t kOutqCompactBytes = 4096;

// Chunk-full reads per ready fd before yielding to the next one; level
// triggering re-reports the fd next round (fairness under fan-in).
constexpr int kMaxReadsPerEvent = 16;

// Epoll key of the listening socket; connection ids never reach it.
constexpr NodeId kListenerKey = kInvalidNodeId;

/// Nonblocking, Nagle off, and SO_SNDBUF = `sndbuf` unless 0.
bool prepare_socket(int fd, int sndbuf) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
  }
  return true;
}

int open_socket(int sndbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0 && !prepare_socket(fd, sndbuf)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool resolve_ipv4(const std::string& host, std::uint16_t port,
                  sockaddr_in& out) {
  std::memset(&out, 0, sizeof out);
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    out.sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (host == "localhost") {
    out.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

StreamTransport::StreamTransport(StreamOptions opts)
    : opts_{opts},
      epoll_{std::make_unique<detail::Epoll>()},
      wheel_{opts.tick_seconds},
      epoch_{std::chrono::steady_clock::now()} {
  ICOLLECT_EXPECTS(opts.read_chunk_bytes > 0);
  ICOLLECT_EXPECTS(opts.connect_timeout > 0.0);
  ICOLLECT_EXPECTS(opts.connect_retries >= 0);
  ICOLLECT_EXPECTS(opts.listen_backlog >= 0);
  ICOLLECT_EXPECTS(opts.so_sndbuf >= 0);
  read_buf_.resize(opts_.read_chunk_bytes);
  if (opts_.idle_timeout > 0.0) {
    // Periodic reaper; reschedules itself for the transport's lifetime.
    const double period = opts_.idle_timeout / 2.0;
    struct Rearm {
      StreamTransport* self;
      double period;
      void operator()() const {
        self->reap_idle();
        self->wheel_.schedule_after(period, Rearm{self, period});
      }
    };
    wheel_.schedule_after(period, Rearm{this, period});
  }
}

StreamTransport::~StreamTransport() {
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

double StreamTransport::now() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(dt).count();
}

std::uint16_t StreamTransport::listen(const std::string& host,
                                      std::uint16_t port) {
  ICOLLECT_EXPECTS(listen_fd_ < 0);
  sockaddr_in addr{};
  if (!resolve_ipv4(host, port, addr)) {
    throw std::runtime_error("tcp: cannot resolve listen host " + host);
  }
  const int fd = open_socket(0);
  if (fd < 0) throw std::runtime_error("tcp: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string{"tcp: bind failed: "} +
                             std::strerror(err));
  }
  const int backlog =
      opts_.listen_backlog > 0 ? opts_.listen_backlog : SOMAXCONN;
  if (::listen(fd, backlog) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string{"tcp: listen failed: "} +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    throw std::runtime_error("tcp: getsockname failed");
  }
  listen_fd_ = fd;
  epoll_->watch(fd, kListenerKey, 0, EPOLLIN);
  return ntohs(bound.sin_port);
}

StreamTransport::Conn* StreamTransport::find_conn(NodeId id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

StreamTransport::Conn& StreamTransport::register_conn(int fd,
                                                      ConnState state) {
  auto conn = std::make_unique<Conn>();
  conn->id = next_id_++;
  conn->fd = fd;
  conn->state = state;
  conn->last_activity = now();
  Conn& ref = *conn;
  conns_.emplace(ref.id, std::move(conn));
  return ref;
}

NodeId StreamTransport::connect(const std::string& host, std::uint16_t port) {
  Conn& conn = register_conn(-1, ConnState::kConnecting);
  conn.host = host;
  conn.port = port;
  const NodeId id = conn.id;
  start_connect_attempt(conn);
  return id;
}

void StreamTransport::start_connect_attempt(Conn& conn) {
  ++conn.attempts;
  if (conn.attempts > 1) ++connect_retries_;
  sockaddr_in addr{};
  if (!resolve_ipv4(conn.host.empty() ? "localhost" : conn.host, conn.port,
                    addr) ||
      (conn.fd = open_socket(opts_.so_sndbuf)) < 0) {
    fail_connect_attempt(conn);
    return;
  }
  const int rc =
      ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc == 0) {
    finish_connect(conn);
    return;
  }
  // EINTR: the nonblocking connect proceeds asynchronously regardless
  // (POSIX) — handle it exactly like EINPROGRESS.
  if (errno != EINPROGRESS && errno != EINTR) {
    fail_connect_attempt(conn);
    return;
  }
  update_interest(conn);  // connecting: wait for writability
  const NodeId id = conn.id;
  conn.connect_timer =
      wheel_.schedule_after(opts_.connect_timeout, [this, id] {
        Conn* c = find_conn(id);
        if (c == nullptr || c->state != ConnState::kConnecting) return;
        c->connect_timer = TimerWheel::kInvalidTimer;
        fail_connect_attempt(*c);
      });
}

void StreamTransport::fail_connect_attempt(Conn& conn) {
  close_fd(conn);
  if (conn.connect_timer != TimerWheel::kInvalidTimer) {
    wheel_.cancel(conn.connect_timer);
    conn.connect_timer = TimerWheel::kInvalidTimer;
  }
  if (conn.attempts <= opts_.connect_retries) {
    const NodeId id = conn.id;
    const double backoff = opts_.retry_backoff * conn.attempts;
    conn.connect_timer = wheel_.schedule_after(
        std::max(backoff, opts_.tick_seconds), [this, id] {
          Conn* c = find_conn(id);
          if (c == nullptr || c->state != ConnState::kConnecting) return;
          c->connect_timer = TimerWheel::kInvalidTimer;
          start_connect_attempt(*c);
        });
    return;
  }
  ++connects_failed_;
  close_conn(conn);
}

void StreamTransport::finish_connect(Conn& conn) {
  if (conn.connect_timer != TimerWheel::kInvalidTimer) {
    wheel_.cancel(conn.connect_timer);
    conn.connect_timer = TimerWheel::kInvalidTimer;
  }
  conn.state = ConnState::kUp;
  conn.last_activity = now();
  ++connects_ok_;
  update_interest(conn);
  if (conn.out_head < conn.outq.size()) mark_dirty(conn);  // queued early
  if (handler_ != nullptr) handler_->on_peer_up(conn.id);
}

bool StreamTransport::send(NodeId peer, std::span<const std::uint8_t> bytes) {
  Conn* conn = find_conn(peer);
  if (conn == nullptr || conn->state == ConnState::kClosed) return false;
  const std::size_t queued = conn->outq.size() - conn->out_head;
  if (queued + bytes.size() > opts_.send_queue_cap_bytes) {
    ++refusals_;
    return false;
  }
  conn->outq.insert(conn->outq.end(), bytes.begin(), bytes.end());
  ++sends_;
  outq_bytes_ += bytes.size();
  if (outq_bytes_ > outq_hwm_) outq_hwm_ = outq_bytes_;
  if (conn->state == ConnState::kUp) mark_dirty(*conn);
  return true;
}

void StreamTransport::close_peer(NodeId peer) {
  Conn* conn = find_conn(peer);
  if (conn == nullptr) return;
  if (conn->state == ConnState::kUp) flush_outq(*conn);  // best effort
  close_conn(*conn);
}

void StreamTransport::close_fd(Conn& conn) {
  if (conn.fd < 0) return;
  if (conn.interest != 0) epoll_->watch(conn.fd, conn.id, conn.interest, 0);
  conn.interest = 0;
  ::close(conn.fd);
  conn.fd = -1;
}

void StreamTransport::close_conn(Conn& conn) {
  if (conn.state == ConnState::kClosed) return;
  ++closes_;
  outq_bytes_ -= conn.outq.size() - conn.out_head;  // abandoned unsent bytes
  if (conn.connect_timer != TimerWheel::kInvalidTimer) {
    wheel_.cancel(conn.connect_timer);
    conn.connect_timer = TimerWheel::kInvalidTimer;
  }
  close_fd(conn);
  conn.state = ConnState::kClosed;
  dead_.push_back(conn.id);
  if (handler_ != nullptr) handler_->on_peer_down(conn.id);
}

void StreamTransport::update_interest(Conn& conn) {
  if (conn.fd < 0) return;
  std::uint32_t want = EPOLLOUT;  // connecting: the handshake completes
  if (conn.state == ConnState::kUp) {
    want = EPOLLIN;
    if (conn.out_head < conn.outq.size()) want |= EPOLLOUT;
  }
  if (want == conn.interest) return;
  epoll_->watch(conn.fd, conn.id, conn.interest, want);
  conn.interest = want;
}

void StreamTransport::mark_dirty(Conn& conn) {
  if (conn.dirty) return;
  conn.dirty = true;
  dirty_.push_back(&conn);
}

void StreamTransport::flush_outq(Conn& conn) {
  while (conn.out_head < conn.outq.size()) {
    const std::size_t n = conn.outq.size() - conn.out_head;
    ssize_t sent;
    do {
      sent = ::send(conn.fd, conn.outq.data() + conn.out_head, n,
                    MSG_NOSIGNAL);
    } while (sent < 0 && errno == EINTR);
    if (sent > 0) {
      conn.out_head += static_cast<std::size_t>(sent);
      bytes_sent_ += static_cast<std::uint64_t>(sent);
      outq_bytes_ -= static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ++partial_drains_;
      // Partial drain: reclaim the consumed prefix once it is sizable,
      // otherwise repeated partial drains grow outq without bound
      // (send() caps only the *unsent* bytes).
      if (conn.out_head >= kOutqCompactBytes) {
        conn.outq.erase(conn.outq.begin(),
                        conn.outq.begin() +
                            static_cast<std::ptrdiff_t>(conn.out_head));
        conn.out_head = 0;
      }
      return;
    }
    close_conn(conn);
    return;
  }
  conn.outq.clear();
  conn.out_head = 0;
}

void StreamTransport::flush_dirty() {
  // Index loop: a flush that fails closes its connection, and the
  // handler's on_peer_down may send (and dirty) elsewhere.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    Conn& conn = *dirty_[i];
    conn.dirty = false;
    if (conn.state != ConnState::kUp) continue;
    flush_outq(conn);
    update_interest(conn);
  }
  dirty_.clear();
}

void StreamTransport::accept_all() {
  for (;;) {
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient failure (EMFILE...)
    }
    if (!prepare_socket(cfd, opts_.so_sndbuf)) {
      ::close(cfd);
      continue;
    }
    Conn& conn = register_conn(cfd, ConnState::kUp);
    update_interest(conn);
    ++accepts_;
    if (handler_ != nullptr) handler_->on_peer_up(conn.id);
  }
}

void StreamTransport::dispatch(NodeId key, std::uint32_t events) {
  if (key == kListenerKey) {
    accept_all();
    return;
  }
  Conn* found = find_conn(key);
  // Closed this round, or between connect attempts: nothing to do.
  if (found == nullptr || found->fd < 0) return;
  Conn& conn = *found;
  if (conn.state == ConnState::kConnecting) {
    int err = 0;
    socklen_t len = sizeof err;
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0) {
      fail_connect_attempt(conn);
      return;
    }
    finish_connect(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) mark_dirty(conn);
  if ((events & EPOLLIN) != 0) handle_readable(conn);
  // A pure error/hangup report: no IO above would have noticed it.
  if ((events & (EPOLLIN | EPOLLOUT)) == 0) close_conn(conn);
}

void StreamTransport::handle_readable(Conn& conn) {
  for (int round = 0; round < kMaxReadsPerEvent; ++round) {
    ssize_t got;
    do {
      got = ::recv(conn.fd, read_buf_.data(), read_buf_.size(), 0);
    } while (got < 0 && errno == EINTR);
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (got <= 0) {  // orderly shutdown by the peer, or a hard error
      close_conn(conn);
      return;
    }
    const auto n = static_cast<std::size_t>(got);
    conn.last_activity = now();
    bytes_received_ += n;
    if (handler_ != nullptr) handler_->on_bytes(conn.id, {read_buf_.data(), n});
    // The handler may have closed us in response to the bytes.
    if (conn.state != ConnState::kUp) return;
    if (n < read_buf_.size()) return;  // short read: socket drained
  }
}

void StreamTransport::reap_idle() {
  const double t = now();
  // Collect first: close_conn fires on_peer_down, and a handler that
  // reconnects from there would insert into conns_ mid-iteration.
  std::vector<NodeId> idle;
  for (const auto& [id, conn] : conns_) {
    if (conn->state == ConnState::kUp &&
        t - conn->last_activity > opts_.idle_timeout) {
      idle.push_back(id);
    }
  }
  for (const NodeId id : idle) {
    if (Conn* conn = find_conn(id)) {
      ++reaps_;
      close_conn(*conn);
    }
  }
}

void StreamTransport::reap_closed() {
  for (const NodeId id : dead_) conns_.erase(id);
  dead_.clear();
}

void StreamTransport::poll_once(double max_wait) {
  // Never sleep past the next wheel tick so timers keep granularity,
  // and not at all while sends made since the last round are unflushed.
  int wait_ms = 0;
  if (dirty_.empty()) {
    wait_ms = std::max(
        1, static_cast<int>(
               std::clamp(max_wait, 0.0, opts_.tick_seconds) * 1000.0));
  }
  const std::span<const epoll_event> ready = epoll_->wait(wait_ms);
  ++wakeups_;
  events_ += ready.size();
  for (const epoll_event& ev : ready) {
    dispatch(static_cast<NodeId>(ev.data.u64), ev.events);
  }

  // Catch the wheel up to the wall clock (fires node timers).
  const auto target =
      static_cast<std::uint64_t>(now() / wheel_.tick_seconds());
  if (target > wheel_.now_tick()) {
    wheel_.advance(target - wheel_.now_tick());
  }
  flush_dirty();
  reap_closed();
}

void StreamTransport::attach_metrics(obs::MetricsRegistry& registry,
                                     const std::string& prefix) {
  // Pull-based gauges over the always-maintained counters: the IO hot
  // path never sees the registry, and values are read only at snapshot
  // time. Counter-like values still export monotonically.
  const auto count = [&](const char* name, const std::uint64_t* v) {
    registry.gauge(prefix + name,
                   [v] { return static_cast<double>(*v); });
  };
  count("bytes_out", &bytes_sent_);
  count("bytes_in", &bytes_received_);
  count("sends", &sends_);
  count("accepts", &accepts_);
  count("connects_ok", &connects_ok_);
  count("connects_failed", &connects_failed_);
  count("connect_retries", &connect_retries_);
  count("queue_drops", &refusals_);
  count("closes", &closes_);
  count("reaps", &reaps_);
  count("partial_drains", &partial_drains_);
  count("wakeups", &wakeups_);
  count("events", &events_);
  registry.gauge(prefix + "events_per_wakeup", [this] {
    return wakeups_ == 0 ? 0.0
                         : static_cast<double>(events_) /
                               static_cast<double>(wakeups_);
  });
  registry.gauge(prefix + "conns", [this] {
    return static_cast<double>(open_connections());
  });
  registry.gauge(prefix + "outq_bytes", [this] {
    return static_cast<double>(outq_bytes_);
  });
  registry.gauge(prefix + "outq_hwm", [this] {
    return static_cast<double>(outq_hwm_);
  });
}

}  // namespace icollect::net
