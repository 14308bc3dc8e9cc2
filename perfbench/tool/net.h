// Sockets for the benchmark: a blocking pipelined client for set-up and
// checks, and the open-/closed-loop load generator.
//
// The generator runs on one thread over at most four connections. It
// polls its sockets (epoll with a zero timeout) until the next scheduled
// send or the next reply, whichever comes first, and stamps each reply
// when its bytes are read. It polls rather than sleeps because on a VM a
// sleeping thread wakes late: 70 us at the median and over 1 ms at p99 on
// a 4-vCPU one, which would be charged to the server. Latency runs from
// the request's scheduled send time to that stamp, so a stalled server is
// charged for the requests it delayed, and the generator's own lateness
// is reported apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One framed reply: the header line and its payload lines.
struct Frame {
  std::string header;
  std::vector<std::string> lines;
  bool operator==(const Frame&) const = default;
};

/// Incremental splitter of a byte stream into frames.
class FrameReader {
 public:
  void Append(const char* data, std::size_t n) { buf_.append(data, n); }
  /// Moves the next complete frame into `out`. Returns false when more
  /// bytes are needed. A header that is neither OK nor ERR yields a frame
  /// whose header the reply checks reject.
  bool Next(Frame* out);

 private:
  std::string buf_;
  std::size_t pos_ = 0;
};

/// A blocking connection to 127.0.0.1:<port>.
class Client {
 public:
  explicit Client(int port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends every line, then reads one frame per line, in order.
  std::vector<Frame> Pipeline(const std::vector<std::string>& lines);
  Frame Call(const std::string& line);

 private:
  Frame Read();
  int fd_ = -1;
  FrameReader reader_;
};

/// Monotonic nanoseconds (CLOCK_MONOTONIC).
std::int64_t NowNs();

/// utime + stime of a process in microseconds, from /proc/<pid>/stat.
double ProcessCpuUs(int pid);

/// What one request of a phase is and how to judge its reply.
struct RequestSource {
  /// Next request: its line and an opaque tag handed back to `check`.
  std::function<std::uint32_t()> next;
  std::function<const std::string&(std::uint32_t)> line;
  /// Returns an empty string when the reply is correct.
  std::function<std::string(std::uint32_t, const Frame&)> check;
};

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures
  std::vector<double> latency_us;   // per answered request
  std::vector<double> arrive_s;     // its arrival, from the phase start
  std::vector<double> late_us;      // open loop: send time - due time
  double elapsed_s = 0.0;
};

class LoadGenerator {
 public:
  /// Opens `conns` (1..4) connections to 127.0.0.1:<port>.
  LoadGenerator(int port, std::size_t conns);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open loop: rate * seconds requests, request i due at start + i/rate,
  /// round-robin over the connections.
  PhaseResult OpenLoop(double rate, double seconds, const RequestSource& src);

  /// Closed loop: `window` requests outstanding on every connection for
  /// `seconds`; only replies that arrive inside the window count.
  PhaseResult ClosedLoop(std::size_t window, double seconds,
                         const RequestSource& src);

 private:
  struct Outstanding {
    std::int64_t due_ns;
    std::uint32_t tag;
  };
  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::deque<Outstanding> pending;
    std::string out;
    bool want_write = false;
  };
  void Send(Conn& c, const std::string& line, Outstanding o);
  void Flush(Conn& c);
  /// Reads what is available on `c` and judges every complete reply.
  /// Returns the number of replies completed.
  std::size_t Drain(Conn& c, const RequestSource& src, PhaseResult* r,
                    std::int64_t count_until_ns);
  void Fail(PhaseResult* r, std::string why);

  std::int64_t start_ns_ = 0;  // the running phase's start
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace perfbench
