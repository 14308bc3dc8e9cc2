#include "net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

constexpr std::size_t kMaxErrors = 5;
// How long a phase waits for its last replies before calling them lost.
constexpr std::int64_t kDrainTimeoutNs = 20'000'000'000;

[[noreturn]] void Die(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    Die("connect to port " + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die("send");
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool FrameReader::Next(Frame* out) {
  std::size_t eol = buf_.find('\n', pos_);
  if (eol == std::string::npos) return false;
  std::string_view header(buf_.data() + pos_, eol - pos_);
  std::size_t want = 0;
  if (header.substr(0, 3) == "OK ") {
    want = std::strtoull(std::string(header.substr(3)).c_str(), nullptr, 10);
  }
  std::vector<std::string> lines;
  lines.reserve(want);
  std::size_t at = eol + 1;
  for (std::size_t i = 0; i < want; ++i) {
    std::size_t e = buf_.find('\n', at);
    if (e == std::string::npos) return false;
    lines.emplace_back(buf_, at, e - at);
    at = e + 1;
  }
  out->header.assign(header);
  out->lines = std::move(lines);
  pos_ = at;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

Client::Client(int port) : fd_(Connect(port)) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Frame Client::Read() {
  Frame f;
  char buf[1 << 16];
  while (!reader_.Next(&f)) {
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die("recv");
    reader_.Append(buf, static_cast<std::size_t>(n));
  }
  return f;
}

std::vector<Frame> Client::Pipeline(const std::vector<std::string>& lines) {
  std::string data;
  for (const std::string& l : lines) data += l + '\n';
  WriteAll(fd_, data);
  std::vector<Frame> frames;
  frames.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) frames.push_back(Read());
  return frames;
}

Frame Client::Call(const std::string& line) {
  WriteAll(fd_, line + '\n');
  return Read();
}

std::int64_t NowNs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double ProcessCpuUs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid));
  }
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) * 1e6 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

LoadGenerator::LoadGenerator(int port, std::size_t conns) {
  if (conns < 1 || conns > 4) throw std::runtime_error("1..4 connections");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) Die("epoll");
  epoll_event ev{};
  conns_.resize(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    conns_[i].fd = Connect(port);
    ::fcntl(conns_[i].fd, F_SETFL, O_NONBLOCK);
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void LoadGenerator::Fail(PhaseResult* r, std::string why) {
  ++r->failed;
  if (r->errors.size() < kMaxErrors) r->errors.push_back(std::move(why));
}

void LoadGenerator::Send(Conn& c, const std::string& line, Outstanding o) {
  c.pending.push_back(o);
  c.out += line;
  c.out += '\n';
  Flush(c);
}

void LoadGenerator::Flush(Conn& c) {
  while (!c.out.empty()) {
    ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) Die("send");
    c.out.erase(0, static_cast<std::size_t>(n));
  }
  bool want = !c.out.empty();
  if (want != c.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data());
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_write = want;
  }
}

std::size_t LoadGenerator::Drain(Conn& c, const RequestSource& src,
                                 PhaseResult* r,
                                 std::int64_t count_until_ns) {
  char buf[1 << 16];
  std::size_t done = 0;
  for (;;) {
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) Die("recv (server closed the connection)");
    std::int64_t arrived = NowNs();
    c.reader.Append(buf, static_cast<std::size_t>(n));
    Frame f;
    while (c.reader.Next(&f)) {
      if (c.pending.empty()) Die("reply without a request");
      Outstanding o = c.pending.front();
      c.pending.pop_front();
      ++done;
      std::string why = src.check(o.tag, f);
      if (!why.empty()) {
        Fail(r, std::move(why));
      } else if (arrived <= count_until_ns) {
        ++r->answered;
        r->latency_us.push_back(static_cast<double>(arrived - o.due_ns) /
                                1e3);
        r->arrive_s.push_back(static_cast<double>(arrived - start_ns_) / 1e9);
      }
    }
  }
  return done;
}

PhaseResult LoadGenerator::OpenLoop(double rate, double seconds,
                                    const RequestSource& src) {
  PhaseResult r;
  const std::uint64_t total =
      static_cast<std::uint64_t>(rate * seconds + 0.5);
  const double interval_ns = 1e9 / rate;
  r.latency_us.reserve(total);
  r.arrive_s.reserve(total);
  r.late_us.reserve(total);
  const std::int64_t start = NowNs() + 1'000'000;
  start_ns_ = start;
  auto due = [&](std::uint64_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) *
                                             interval_ns);
  };
  std::uint64_t next = 0;
  std::size_t outstanding = 0;
  std::int64_t deadline = 0;
  epoll_event events[8];
  while (next < total || outstanding > 0) {
    std::int64_t now = NowNs();
    while (next < total && due(next) <= now) {
      Conn& c = conns_[next % conns_.size()];
      std::uint32_t tag = src.next();
      std::int64_t sent = NowNs();
      Send(c, src.line(tag), Outstanding{due(next), tag});
      r.late_us.push_back(static_cast<double>(sent - due(next)) / 1e3);
      ++r.sent;
      ++outstanding;
      ++next;
      now = NowNs();
    }
    if (next == total && deadline == 0) deadline = now + kDrainTimeoutNs;
    int n = ::epoll_wait(epoll_fd_, events, 8, 0);
    if (n < 0 && errno != EINTR) Die("epoll_wait");
    for (int i = 0; i < n; ++i) {
      Conn& c = conns_[events[i].data.u64];
      if (events[i].events & EPOLLOUT) Flush(c);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        outstanding -= Drain(c, src, &r, INT64_MAX);
      }
    }
    if (deadline != 0 && outstanding > 0 && NowNs() > deadline) {
      for (std::size_t i = 0; i < outstanding; ++i) Fail(&r, "reply lost");
      break;
    }
  }
  r.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return r;
}

PhaseResult LoadGenerator::ClosedLoop(std::size_t window, double seconds,
                                      const RequestSource& src) {
  PhaseResult r;
  const std::int64_t start = NowNs();
  start_ns_ = start;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  auto send_one = [&](Conn& c) {
    std::uint32_t tag = src.next();
    Send(c, src.line(tag), Outstanding{NowNs(), tag});
    ++r.sent;
  };
  for (Conn& c : conns_) {
    for (std::size_t w = 0; w < window; ++w) send_one(c);
  }
  std::size_t outstanding = conns_.size() * window;
  epoll_event events[8];
  while (outstanding > 0) {
    std::int64_t now = NowNs();
    if (now > end + kDrainTimeoutNs) {
      for (std::size_t i = 0; i < outstanding; ++i) Fail(&r, "reply lost");
      break;
    }
    int n = ::epoll_wait(epoll_fd_, events, 8, 0);
    if (n < 0 && errno != EINTR) Die("epoll_wait");
    for (int i = 0; i < n; ++i) {
      Conn& c = conns_[events[i].data.u64];
      if (events[i].events & EPOLLOUT) Flush(c);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        std::size_t done = Drain(c, src, &r, end);
        outstanding -= done;
        if (NowNs() < end) {
          for (std::size_t k = 0; k < done; ++k) send_one(c);
          outstanding += done;
        }
      }
    }
  }
  r.elapsed_s = static_cast<double>(end - start) / 1e9;
  return r;
}

}  // namespace perfbench
