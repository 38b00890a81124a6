#include "service/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/queue.hpp"
#include "service/wire.hpp"
#include "workloads/eembc.hpp"

#if !defined(_WIN32)
#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define LAEC_HAVE_SOCKETS 1
#else
#define LAEC_HAVE_SOCKETS 0
#endif

namespace laec::service {

#if LAEC_HAVE_SOCKETS

namespace {

/// RAII fd.
struct Fd {
  int fd = -1;
  Fd() = default;
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd(o.fd) { o.fd = -1; }
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// One submitted campaign: shared between the connection thread that
/// streams rows and the workers that compute cells.
struct JobState {
  reliability::CampaignSpec spec;
  std::vector<reliability::CampaignCell> cells;  ///< this job's slice
  u64 base_seed = 0x1aec;

  std::mutex m;
  std::condition_variable cv;
  std::vector<std::optional<reliability::CellResult>> results;
  bool failed = false;
  std::string failure;

  void deliver(std::size_t slot, reliability::CellResult r) {
    {
      std::lock_guard<std::mutex> lock(m);
      results[slot] = std::move(r);
    }
    cv.notify_all();
  }

  void fail(const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(m);
      failed = true;
      failure = why;
    }
    cv.notify_all();
  }
};

struct WorkItem {
  std::shared_ptr<JobState> job;
  std::size_t slot = 0;
};

/// Per-worker progress counters (status frame columns).
struct WorkerCounters {
  std::atomic<u64> cells{0};
  std::atomic<u64> trials{0};
};

/// Shared observable state of one daemon instance: everything the kStatus
/// frame reports. Counters are relaxed atomics — a status probe reads a
/// near-consistent snapshot, never blocks a worker.
struct DaemonState {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<WorkerCounters>> per_worker;
  std::atomic<u64> jobs_accepted{0};
  std::atomic<u64> jobs_rejected{0};
  std::atomic<u64> cells_done{0};
  std::atomic<u64> trials_done{0};
  std::atomic<u64> rows_streamed{0};
  std::atomic<u64> inflight{0};

  [[nodiscard]] u64 uptime_ms() const {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
};

void worker_loop(MpmcQueue<WorkItem>& queue, DaemonState& state,
                 unsigned widx) {
  WorkerCounters& mine = *state.per_worker[widx];
  obs::Histogram& wait_us =
      obs::Registry::global().histogram("daemon.queue_wait_us");
  for (;;) {
    std::optional<WorkItem> item;
    {
      obs::Span wait("queue-wait");
      const auto t0 = std::chrono::steady_clock::now();
      item = queue.pop();
      wait_us.record(static_cast<u64>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    if (!item.has_value()) return;  // queue closed and drained
    state.inflight.fetch_add(1, std::memory_order_relaxed);
    JobState& job = *item->job;
    const reliability::CampaignCell& cell = job.cells[item->slot];
    obs::Span span("daemon-cell");
    span.arg("cell", static_cast<u64>(cell.index));
    span.arg("workload", cell.workload);
    span.arg("scheme", cell.scheme);
    try {
      reliability::CampaignOptions copts;
      copts.threads = 1;
      copts.base_seed = job.base_seed;
      const reliability::CampaignSummary sum = reliability::run_campaign(
          {cell}, job.spec, copts);
      if (sum.cells.size() != 1) {
        throw std::runtime_error("cell produced no result");
      }
      mine.cells.fetch_add(1, std::memory_order_relaxed);
      mine.trials.fetch_add(sum.cells.front().trials,
                            std::memory_order_relaxed);
      state.cells_done.fetch_add(1, std::memory_order_relaxed);
      state.trials_done.fetch_add(sum.cells.front().trials,
                                  std::memory_order_relaxed);
      job.deliver(item->slot, sum.cells.front());
    } catch (const std::exception& e) {
      job.fail("cell " + std::to_string(cell.index) + " failed: " + e.what());
    }
    state.inflight.fetch_sub(1, std::memory_order_relaxed);
  }
}

void log_line(const ServeOptions& opts, const std::string& msg) {
  if (!opts.verbose) return;
  obs::log_info("laec-serve", msg);
}

/// Assemble the kStatus reply: daemon counters plus a digest of the
/// process-wide metrics registry (histograms reduced to count/sum/p50/p99).
DaemonStatus collect_status(const DaemonState& state,
                            const MpmcQueue<WorkItem>& queue) {
  DaemonStatus s;
  s.uptime_ms = state.uptime_ms();
  s.workers = static_cast<u32>(state.per_worker.size());
  s.queue_depth = queue.size();
  s.inflight_cells = state.inflight.load(std::memory_order_relaxed);
  s.jobs_accepted = state.jobs_accepted.load(std::memory_order_relaxed);
  s.jobs_rejected = state.jobs_rejected.load(std::memory_order_relaxed);
  s.cells_done = state.cells_done.load(std::memory_order_relaxed);
  s.trials_done = state.trials_done.load(std::memory_order_relaxed);
  s.rows_streamed = state.rows_streamed.load(std::memory_order_relaxed);
  s.per_worker.reserve(state.per_worker.size());
  for (const auto& w : state.per_worker) {
    WorkerStatus ws;
    ws.cells_done = w->cells.load(std::memory_order_relaxed);
    ws.trials_done = w->trials.load(std::memory_order_relaxed);
    s.per_worker.push_back(ws);
  }
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  s.metrics.reserve(snap.metrics.size());
  for (const obs::MetricValue& m : snap.metrics) {
    StatusMetric sm;
    sm.name = m.name;
    sm.kind = static_cast<u8>(m.kind);
    if (m.kind == obs::MetricKind::kHistogram) {
      sm.value = m.hist.count;
      sm.sum = m.hist.sum;
      sm.p50 = m.hist.percentile(0.50);
      sm.p99 = m.hist.percentile(0.99);
    } else {
      sm.value = m.value;
    }
    s.metrics.push_back(std::move(sm));
  }
  return s;
}

/// Serve one connection: hello, read a frame, dispatch. Returns true if
/// the client requested daemon shutdown.
bool serve_connection(int fd, MpmcQueue<WorkItem>& queue,
                      DaemonState& state, const ServeOptions& opts) {
  write_frame(fd, FrameType::kHello, hello_payload());
  const Frame req = read_frame(fd);
  obs::Span frame_span("daemon-frame");
  frame_span.arg("type", static_cast<u64>(req.type));

  if (req.type == FrameType::kShutdown) {
    write_frame(fd, FrameType::kDone, encode_done({}));
    return true;
  }
  if (req.type == FrameType::kStatus) {
    write_frame(fd, FrameType::kStatus,
                encode_status(collect_status(state, queue)));
    return false;
  }
  if (req.type != FrameType::kSubmit) {
    write_frame(fd, FrameType::kError,
                "expected a submit, status or stop frame");
    return false;
  }

  auto job = std::make_shared<JobState>();
  try {
    CampaignJob parsed = parse_job(req.payload);
    if (parsed.shard_count == 0 ||
        parsed.shard_index >= parsed.shard_count) {
      throw WireError("job shard_index/shard_count invalid");
    }
    job->spec = parsed.spec;
    job->base_seed = parsed.base_seed;
    for (auto& c : parsed.cells) {
      if (c.index % parsed.shard_count == parsed.shard_index) {
        job->cells.push_back(std::move(c));
      }
    }
    // Build each cell's config once up front so an unknown scheme or
    // workload is rejected as kError BEFORE any cell is enqueued.
    for (const auto& c : job->cells) {
      core::SimConfig probe = job->spec.base;
      probe.set_scheme(c.scheme);
      (void)workloads::kernel_by_name(c.workload);
    }
  } catch (const std::exception& e) {
    state.jobs_rejected.fetch_add(1, std::memory_order_relaxed);
    obs::log_warn("laec-serve", std::string("job rejected: ") + e.what());
    write_frame(fd, FrameType::kError,
                std::string("job rejected: ") + e.what());
    return false;
  }

  state.jobs_accepted.fetch_add(1, std::memory_order_relaxed);
  log_line(opts, "job accepted: " + std::to_string(job->cells.size()) +
                     " cells");
  job->results.resize(job->cells.size());
  for (std::size_t i = 0; i < job->cells.size(); ++i) {
    if (!queue.push(WorkItem{job, i})) {
      write_frame(fd, FrameType::kError, "daemon is shutting down");
      return false;
    }
  }

  // Stream rows in grid order: wait for slot g, emit, advance — run_sweep's
  // reorder window over a socket.
  write_frame(fd, FrameType::kRowHeader,
              encode_string_list(reliability::campaign_row_headers()));
  DoneSummary done;
  for (std::size_t g = 0; g < job->cells.size(); ++g) {
    reliability::CellResult res;
    {
      std::unique_lock<std::mutex> lock(job->m);
      job->cv.wait(lock, [&] {
        return job->failed || job->results[g].has_value();
      });
      if (job->failed) {
        lock.unlock();
        write_frame(fd, FrameType::kError, job->failure);
        return false;
      }
      res = std::move(*job->results[g]);
      job->results[g].reset();
    }
    done.cells += 1;
    done.trials += res.trials;
    done.failures += res.failures();
    write_frame(fd, FrameType::kRow,
                encode_string_list(reliability::campaign_to_row(res)));
    state.rows_streamed.fetch_add(1, std::memory_order_relaxed);
  }
  write_frame(fd, FrameType::kDone, encode_done(done));
  log_line(opts, "job done: " + std::to_string(done.cells) + " cells, " +
                     std::to_string(done.trials) + " trials");
  return false;
}

Fd connect_to(const std::string& socket_path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (fd.fd < 0) {
    throw std::runtime_error("cannot create unix socket");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    throw std::runtime_error("cannot connect to daemon at " + socket_path +
                             " (is `laec_cli serve` running?)");
  }
  return fd;
}

}  // namespace

int run_daemon(const ServeOptions& opts) {
  if (opts.socket_path.empty()) {
    throw std::invalid_argument("run_daemon: socket path is empty");
  }
  Fd listener(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (listener.fd < 0) {
    throw std::runtime_error("cannot create unix socket");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts.socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + opts.socket_path);
  }
  std::memcpy(addr.sun_path, opts.socket_path.c_str(),
              opts.socket_path.size() + 1);
  ::unlink(opts.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    throw std::runtime_error("cannot bind " + opts.socket_path);
  }
  if (::listen(listener.fd, 16) < 0) {
    throw std::runtime_error("cannot listen on " + opts.socket_path);
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned n_workers = opts.workers == 0 ? hw : opts.workers;

  // Queue capacity bounds in-flight memory: connection threads block in
  // push() once workers fall behind, which is exactly the backpressure a
  // work queue should exert on its clients.
  MpmcQueue<WorkItem> queue(std::max(4u, n_workers * 4u));
  DaemonState state;
  state.per_worker.reserve(n_workers);
  for (unsigned i = 0; i < n_workers; ++i) {
    state.per_worker.push_back(std::make_unique<WorkerCounters>());
  }
  std::vector<std::thread> workers;
  workers.reserve(n_workers);
  for (unsigned i = 0; i < n_workers; ++i) {
    workers.emplace_back([&queue, &state, i] { worker_loop(queue, state, i); });
  }

  log_line(opts, "listening on " + opts.socket_path + " with " +
                     std::to_string(n_workers) + " workers");

  std::atomic<bool> shutdown{false};
  std::vector<std::thread> connections;
  while (!shutdown.load(std::memory_order_acquire) &&
         (opts.stop == nullptr ||
          !opts.stop->load(std::memory_order_acquire))) {
    pollfd pfd{listener.fd, POLLIN, 0};
    const int rv = ::poll(&pfd, 1, 200);  // wake to re-check stop flags
    if (rv < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rv == 0) continue;
    const int conn = ::accept(listener.fd, nullptr, nullptr);
    if (conn < 0) continue;
    connections.emplace_back([conn, &queue, &state, &shutdown, &opts] {
      Fd guard(conn);
      try {
        if (serve_connection(conn, queue, state, opts)) {
          shutdown.store(true, std::memory_order_release);
        }
      } catch (const std::exception& e) {
        // Peer vanished mid-conversation; the daemon itself lives on.
        if (opts.verbose) {
          obs::log_warn("laec-serve",
                        std::string("connection dropped: ") + e.what());
        }
      }
    });
  }

  for (auto& t : connections) t.join();
  queue.close();
  for (auto& t : workers) t.join();
  ::unlink(opts.socket_path.c_str());
  log_line(opts, "shut down cleanly");
  return 0;
}

DaemonConnection::DaemonConnection(const std::string& socket_path) {
  Fd fd = connect_to(socket_path);
  const Frame hello = read_frame(fd.fd);
  if (hello.type != FrameType::kHello) {
    throw WireError("daemon did not greet with a hello frame");
  }
  check_hello(hello.payload);
  std::swap(fd_, fd.fd);
}

DaemonConnection::~DaemonConnection() {
  if (fd_ >= 0) ::close(fd_);
}

SubmitSummary submit_job(DaemonConnection daemon, const CampaignJob& job,
                         report::RowWriter& rows) {
  const int fd = daemon.fd();
  write_frame(fd, FrameType::kSubmit, serialize_job(job));

  SubmitSummary sum;
  bool begun = false;
  for (;;) {
    const Frame f = read_frame(fd);
    switch (f.type) {
      case FrameType::kRowHeader:
        rows.begin(decode_string_list(f.payload));
        begun = true;
        break;
      case FrameType::kRow:
        if (!begun) throw WireError("daemon sent a row before the header");
        rows.row(decode_string_list(f.payload));
        break;
      case FrameType::kDone: {
        const DoneSummary d = decode_done(f.payload);
        sum.cells_run = d.cells;
        sum.trials_run = d.trials;
        sum.failures = d.failures;
        if (begun) rows.end();
        return sum;
      }
      case FrameType::kError:
        throw std::runtime_error("daemon: " + f.payload);
      default:
        throw WireError("unexpected frame type from daemon");
    }
  }
}

void request_shutdown(const std::string& socket_path) {
  const DaemonConnection daemon(socket_path);
  write_frame(daemon.fd(), FrameType::kShutdown, {});
  (void)read_frame(daemon.fd());  // wait for the kDone acknowledgement
}

DaemonStatus request_status(const std::string& socket_path) {
  const DaemonConnection daemon(socket_path);
  write_frame(daemon.fd(), FrameType::kStatus, {});
  const Frame reply = read_frame(daemon.fd());
  if (reply.type == FrameType::kError) {
    throw std::runtime_error("daemon: " + reply.payload);
  }
  if (reply.type != FrameType::kStatus) {
    throw WireError("unexpected frame type from daemon");
  }
  return decode_status(reply.payload);
}

#else  // !LAEC_HAVE_SOCKETS

int run_daemon(const ServeOptions&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

DaemonConnection::DaemonConnection(const std::string&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

DaemonConnection::~DaemonConnection() = default;

SubmitSummary submit_job(DaemonConnection, const CampaignJob&,
                         report::RowWriter&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

void request_shutdown(const std::string&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

DaemonStatus request_status(const std::string&) {
  throw std::runtime_error(
      "the campaign daemon needs Unix-domain sockets, which this platform "
      "lacks");
}

#endif

}  // namespace laec::service
