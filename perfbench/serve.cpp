// serve and drive modes: one request schedule, two executors.
//
// Schedule file (written by run.py from the workload seed):
//   P <phase> <name> open|closed <concurrency>
//   Q <phase> <offset_ns> <model> <coding> <image> <seed>
// A request's id is its Q line's index. Open phases send each request at
// phase start + offset_ns whatever the backlog; closed phases keep
// <concurrency> requests outstanding. Every phase drains before the next.
//
// drive runs bench/tsnn_serve as a child process over its stdin/stdout
// line protocol (the tool users run); serve drives an in-process
// core::InferenceServer on the same schedule, recording submit, start and
// done times in a CompletionSink (the traced run's view of the server).
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "coding/registry.h"
#include "core/scenario.h"
#include "core/serve.h"
#include "tool.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Phase {
  std::string name;
  bool closed = false;
  std::size_t concurrency = 1;
  std::size_t first = 0;  ///< first request id
  std::size_t count = 0;
};

struct Request {
  std::size_t phase = 0;
  std::int64_t offset_ns = 0;
  std::string model;
  std::string coding;
  std::size_t image = 0;
  std::uint64_t seed = 0;
};

struct Schedule {
  std::vector<Phase> phases;
  std::vector<Request> requests;
};

Schedule read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read schedule " + path);
  }
  Schedule s;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "P") {
      Phase p;
      std::size_t index = 0;
      std::string kind;
      fields >> index >> p.name >> kind >> p.concurrency;
      if (!fields || index != s.phases.size()) {
        throw std::runtime_error("bad schedule phase line: " + line);
      }
      p.closed = kind == "closed";
      p.first = s.requests.size();
      s.phases.push_back(p);
    } else if (tag == "Q") {
      Request r;
      fields >> r.phase >> r.offset_ns >> r.model >> r.coding >> r.image >>
          r.seed;
      if (!fields || s.phases.empty() || r.phase != s.phases.size() - 1) {
        throw std::runtime_error("bad schedule request line: " + line);
      }
      ++s.phases.back().count;
      s.requests.push_back(r);
    }
  }
  return s;
}

/// Keeps at most `limit` requests of a closed phase outstanding.
class Window {
 public:
  void acquire(std::size_t limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ < limit; });
    ++outstanding_;
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --outstanding_;
    }
    cv_.notify_all();
  }
  /// Waits until nothing is outstanding or `deadline` passes.
  bool wait_idle(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_until(lock, deadline, [&] { return outstanding_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
};

/// Models and coding schemes a schedule names, made ready once.
struct Catalog {
  std::map<std::string, std::unique_ptr<ZooModel>> models;
  std::map<std::string, snn::CodingSchemePtr> schemes;

  Catalog(const Schedule& s, std::size_t images, SpanLog& log) {
    for (const Request& r : s.requests) {
      if (!models.count(r.model)) {
        models[r.model] = load_zoo_model(r.model, images, log);
      }
      if (!schemes.count(r.coding)) {
        const core::MethodSpec spec = core::parse_method_label(r.coding);
        schemes[r.coding] = coding::make_scheme(spec.coding, spec.params);
      }
    }
  }

  snn::ClassifyRequest request(const Request& r) const {
    const ZooModel& zoo = *models.at(r.model);
    if (r.image >= zoo.images.size()) {
      throw std::runtime_error("schedule image out of range");
    }
    snn::ClassifyRequest req;
    req.sim.model = &zoo.model();
    req.sim.scheme = schemes.at(r.coding).get();
    req.image = &zoo.images[r.image];
    req.seed = r.seed;
    req.stream = 0;  // tsnn_serve's stream convention
    return req;
  }
};

// ------------------------------------------------------------- in-process --

struct Completion {
  std::int64_t submit_ns = 0, start_ns = 0, done_ns = 0;
  std::size_t batch = 0;
  int worker = -1;
  int status = 0;  ///< 0 = missing, 1 = ok, 2 = error or cancelled
  std::size_t predicted = 0, decision = 0, spikes = 0;
};

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

class RecordingSink final : public core::InferenceServer::CompletionSink {
 public:
  RecordingSink(std::vector<Completion>* slots, Window* window)
      : slots_(slots), window_(window) {}

  void on_complete(const core::InferenceServer::Response& resp) override {
    static std::atomic<int> next_worker{0};
    thread_local const int worker = next_worker++;
    Completion& c = (*slots_)[resp.id];
    c.submit_ns = to_ns(resp.submit_time);
    c.start_ns = to_ns(resp.start_time);
    c.done_ns = to_ns(resp.done_time);
    c.batch = resp.batch_size;
    c.worker = worker;
    if (resp.result != nullptr) {
      c.status = 1;
      c.predicted = resp.result->predicted_class;
      c.decision = resp.result->decision_timestep;
      c.spikes = resp.result->total_spikes;
    } else {
      c.status = 2;
    }
    window_->release();
  }

 private:
  std::vector<Completion>* slots_;
  Window* window_;
};

}  // namespace

int run_serve(const Flags& flags) {
  const Schedule schedule = read_schedule(flags.str("schedule"));
  OutFile out(flags.str("out"));
  SpanLog log(true);
  const Catalog catalog(schedule, kServeImages, log);

  core::ServeOptions options;
  options.num_threads = kServeThreads;
  options.max_batch = kServeMaxBatch;
  std::vector<Completion> slots(schedule.requests.size());
  Window window;
  RecordingSink sink(&slots, &window);
  std::vector<std::int64_t> phase_start(schedule.phases.size(), 0);
  {
    core::InferenceServer server(options);
    for (std::size_t p = 0; p < schedule.phases.size(); ++p) {
      const Phase& phase = schedule.phases[p];
      const Clock::time_point t0 = Clock::now();
      phase_start[p] = to_ns(t0);
      for (std::size_t id = phase.first; id < phase.first + phase.count; ++id) {
        const Request& r = schedule.requests[id];
        if (phase.closed) {
          window.acquire(phase.concurrency);
        } else {
          std::this_thread::sleep_until(
              t0 + std::chrono::nanoseconds(r.offset_ns));
          window.acquire(std::numeric_limits<std::size_t>::max());
        }
        core::InferenceServer::Request req;
        req.id = id;
        req.sink = &sink;
        req.work = catalog.request(r);
        if (!server.submit(req)) {
          window.release();
        }
      }
      server.drain();
    }
  }
  for (std::size_t id = 0; id < slots.size(); ++id) {
    const Completion& c = slots[id];
    const std::size_t p = schedule.requests[id].phase;
    const std::int64_t base = phase_start[p];
    std::fprintf(out.f,
                 "R %zu %zu %lld %lld %lld %lld %zu %d %d %zu %zu %zu\n", p,
                 id, static_cast<long long>(schedule.requests[id].offset_ns),
                 static_cast<long long>(c.submit_ns - base),
                 static_cast<long long>(c.start_ns - base),
                 static_cast<long long>(c.done_ns - base), c.batch, c.worker,
                 c.status, c.predicted, c.decision, c.spikes);
  }

  // Per-layer profile of the simulation behind these requests: each
  // distinct (model, coding, image) once through trace_request.
  std::map<std::tuple<std::string, std::string, std::size_t>, std::size_t> seen;
  std::map<std::string, std::unique_ptr<CodingSpans>> names;
  const std::uint32_t clean = log.intern("noise.clean");
  TraceScratch scratch;
  snn::SimResult r;
  std::size_t mismatches = 0;
  for (std::size_t id = 0; id < schedule.requests.size(); ++id) {
    const Request& q = schedule.requests[id];
    if (!seen.emplace(std::make_tuple(q.model, q.coding, q.image), id).second) {
      continue;
    }
    const snn::ClassifyRequest req = catalog.request(q);
    const ZooModel& zoo = *catalog.models.at(q.model);
    const std::string coding = coding_family(*req.sim.scheme);
    auto& n = names[coding + "/" + q.model];
    if (!n) {
      n = std::make_unique<CodingSpans>(
          intern_coding(log, coding, zoo.model()));
    }
    if (!trace_request(req, zoo, *n, clean, id, log, scratch, r)) {
      ++mismatches;
    }
  }
  std::fprintf(out.f, "I profiled %zu mismatches %zu\n", seen.size(),
               mismatches);
  log.write(out.f);
  return 0;
}

// ------------------------------------------------------------------ drive --

namespace {

/// tsnn_serve as a child process with piped stdin/stdout.
class Child {
 public:
  explicit Child(const std::vector<std::string>& argv) {
    int in[2], out[2];
    if (pipe(in) != 0 || pipe(out) != 0) {
      throw std::runtime_error("pipe failed");
    }
    pid_ = fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      dup2(in[0], 0);
      dup2(out[1], 1);
      close(in[0]);
      close(in[1]);
      close(out[0]);
      close(out[1]);
      std::vector<char*> args;
      for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
      }
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    close(in[0]);
    close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
  }

  ~Child() {
    close_input();
    if (from_child_ >= 0) {
      close(from_child_);
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      reap();
    }
  }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool send(const std::string& line) {
    std::size_t done = 0;
    while (done < line.size()) {
      const ssize_t n =
          write(to_child_, line.data() + done, line.size() - done);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next output line without its newline; false at EOF or when nothing
  /// arrives before `deadline`.
  bool read_line(std::string* line, Clock::time_point deadline) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        return false;
      }
      pollfd pfd{from_child_, POLLIN, 0};
      const int ready = poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) {
        continue;
      }
      if (ready <= 0) {
        return false;
      }
      char chunk[65536];
      const ssize_t n = read(from_child_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        eof_ = true;
        return false;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool eof() const { return eof_; }

  void close_input() {
    if (to_child_ >= 0) {
      close(to_child_);
      to_child_ = -1;
    }
  }

  /// Waits for exit (killing the child after `grace`); peak RSS in KiB.
  long finish(std::chrono::seconds grace) {
    close_input();
    const Clock::time_point deadline = Clock::now() + grace;
    int status = 0;
    rusage usage{};
    while (wait4(pid_, &status, WNOHANG, &usage) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return usage.ru_maxrss;
  }

 private:
  void reap() {
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  bool eof_ = false;
};

struct Reply {
  std::int64_t send_ns = 0, recv_ns = 0;
  int status = 0;  ///< 0 = missing, 1 = ok, 2 = err
  std::size_t predicted = 0, decision = 0, spikes = 0, batch = 0;
  long long queue_us = 0, run_us = 0;
};

/// Reads "ready", timing it from `spawned`; false when the server dies or
/// stalls first.
bool wait_ready(Child& child, Clock::time_point spawned, double* seconds) {
  std::string line;
  while (child.read_line(&line, spawned + std::chrono::seconds(120))) {
    if (line.rfind("ready", 0) == 0) {
      *seconds = std::chrono::duration<double>(Clock::now() - spawned).count();
      return true;
    }
  }
  return false;
}

}  // namespace

int run_drive(const Flags& flags) {
  signal(SIGPIPE, SIG_IGN);
  const Schedule schedule = read_schedule(flags.str("schedule"));
  const bool verify = flags.u64("verify") != 0;
  OutFile out(flags.str("out"));
  std::vector<std::string> models;
  for (const Request& r : schedule.requests) {
    if (std::find(models.begin(), models.end(), r.model) == models.end()) {
      models.push_back(r.model);
    }
  }
  std::string model_list;
  for (const std::string& m : models) {
    model_list += (model_list.empty() ? "" : ",") + m;
  }
  const std::vector<std::string> argv = {
      flags.str("server"),
      "--models", model_list,
      "--images", std::to_string(kServeImages),
      "--threads", std::to_string(kServeThreads),
      "--max-batch", std::to_string(kServeMaxBatch),
      "--deadline-us", "0"};

  // Set-up samples: spawn until "ready". The first spawn serves the whole
  // schedule; kSetupsPerPhase more are spawned and quit before each phase,
  // while the serving one is idle.
  const auto spawn = [&](std::unique_ptr<Child>* child) {
    const Clock::time_point spawned = Clock::now();
    *child = std::make_unique<Child>(argv);
    double seconds = 0.0;
    if (!wait_ready(**child, spawned, &seconds)) {
      return false;
    }
    std::fprintf(out.f, "SETUP %.9f\n", seconds);
    return true;
  };
  const auto setup_samples = [&] {
    for (std::size_t k = 0; k < kSetupsPerPhase; ++k) {
      std::unique_ptr<Child> sample;
      if (!spawn(&sample)) {
        return false;
      }
      sample->send("quit\n");
      sample->finish(std::chrono::seconds(30));
    }
    return true;
  };
  std::unique_ptr<Child> child;
  if (!spawn(&child)) {
    std::fprintf(out.f, "F server never became ready\n");
    return 1;
  }

  std::vector<Reply> replies(schedule.requests.size());
  std::mutex mutex;  // guards replies, stats_line
  std::string stats_line;
  Window window;
  std::vector<std::int64_t> phase_start(schedule.phases.size(), 0);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::string line;
    while (!stop && !child->eof()) {
      if (!child->read_line(&line,
                            Clock::now() + std::chrono::milliseconds(200))) {
        continue;
      }
      const std::int64_t now = to_ns(Clock::now());
      std::istringstream in(line);
      std::string tag;
      std::size_t id = 0;
      in >> tag >> id;
      if (tag == "stats") {
        const std::lock_guard<std::mutex> lock(mutex);
        stats_line = line;
        continue;
      }
      if ((tag != "ok" && tag != "err") || !in || id >= replies.size()) {
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(mutex);
        Reply& r = replies[id];
        if (r.status != 0) {
          continue;  // duplicate response: the first one counts
        }
        r.recv_ns = now;
        if (tag == "ok") {
          in >> r.predicted >> r.decision >> r.spikes >> r.queue_us >>
              r.run_us >> r.batch;
          r.status = in ? 1 : 2;
        } else {
          r.status = 2;
        }
      }
      window.release();
    }
  });
  // Joins the reader on every exit path (it stops within one poll tick).
  struct ReaderJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~ReaderJoin() {
      stop = true;
      if (thread.joinable()) {
        thread.join();
      }
    }
  } reader_join{stop, reader};

  bool sent_all = true;
  for (std::size_t p = 0; p < schedule.phases.size() && sent_all; ++p) {
    const Phase& phase = schedule.phases[p];
    if (!setup_samples()) {
      std::fprintf(out.f, "F a set-up sample never became ready\n");
      sent_all = false;
      break;
    }
    const Clock::time_point t0 = Clock::now();
    phase_start[p] = to_ns(t0);
    for (std::size_t id = phase.first; id < phase.first + phase.count; ++id) {
      const Request& r = schedule.requests[id];
      if (phase.closed) {
        window.acquire(phase.concurrency);
      } else {
        std::this_thread::sleep_until(
            t0 + std::chrono::nanoseconds(r.offset_ns));
        window.acquire(std::numeric_limits<std::size_t>::max());
      }
      const std::string line = std::to_string(id) + " " + r.model + " " +
                               r.coding + " " + std::to_string(r.image) + " " +
                               std::to_string(r.seed) + "\n";
      {
        const std::lock_guard<std::mutex> lock(mutex);
        replies[id].send_ns = to_ns(Clock::now());
      }
      if (!child->send(line)) {
        window.release();
        sent_all = false;
        break;
      }
    }
    window.wait_idle(Clock::now() + std::chrono::seconds(10));
  }
  child->send("stats\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  child->send("quit\n");
  child->close_input();
  window.wait_idle(Clock::now() + std::chrono::seconds(10));
  const long rss_kb = child->finish(std::chrono::seconds(30));
  stop = true;
  reader.join();

  std::fprintf(out.f, "RSS %ld\n", rss_kb);
  std::fprintf(out.f, "STATS %s\n", stats_line.c_str());
  for (std::size_t id = 0; id < replies.size(); ++id) {
    const Reply& r = replies[id];
    const std::size_t p = schedule.requests[id].phase;
    const std::int64_t base = phase_start[p];
    std::fprintf(out.f,
                 "R %zu %zu %lld %lld %lld %d %zu %zu %zu %lld %lld %zu\n",
                 p, id, static_cast<long long>(schedule.requests[id].offset_ns),
                 static_cast<long long>(r.send_ns - base),
                 static_cast<long long>(r.recv_ns - base), r.status,
                 r.predicted, r.decision, r.spikes, r.queue_us, r.run_us,
                 r.batch);
  }

  // Expected outputs: every request re-executed in process through
  // snn::execute_request (after the server is gone, so it costs the
  // measurement nothing).
  if (verify) {
    SpanLog quiet(false);
    const Catalog catalog(schedule, kServeImages, quiet);
    std::vector<snn::SimResult> expect(schedule.requests.size());
    std::atomic<std::size_t> next{0};
    run_workers(4, [&] {
      snn::SimWorkspace ws;
      for (std::size_t id = next++; id < expect.size(); id = next++) {
        snn::execute_request(catalog.request(schedule.requests[id]), ws,
                             expect[id]);
      }
    });
    for (std::size_t id = 0; id < expect.size(); ++id) {
      std::fprintf(out.f, "E %zu %zu %zu %zu\n", id, expect[id].predicted_class,
                   expect[id].decision_timestep, expect[id].total_spikes);
    }
  }
  return 0;
}

}  // namespace perfbench
