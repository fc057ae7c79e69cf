// ppclust_e2e — runs one workload of the end-to-end benchmark and prints
// its metrics as one JSON object. bench/e2e/run.py builds and drives it;
// see bench/e2e/README.md.
//
//   ppclust_e2e --workload=NAME --seed=N --seconds=S
//               [--traced --trace-out=FILE.json]
//   ppclust_e2e --info
//
// Untraced runs report the end-to-end metrics. Traced runs execute the
// schedule steps from the driver, report the per-layer metrics and write
// the spans as Chrome trace-event JSON.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/agglomerative.h"
#include "common/thread_annotations.h"
#include "crypto/aes128.h"
#include "crypto/sha256.h"
#include "distance/kernels.h"
#include "e2e.h"

extern char** environ;

namespace ppc::e2e {
namespace {

constexpr size_t kSetupReps = 3;
constexpr size_t kAgglomerativeReps = 5;
constexpr size_t kTraceFileJobs = 16;
constexpr double kMinAdjustedRand = 0.9;
constexpr double kMaxLateMs = 5.0;
constexpr double kMinBulkCoverage = 0.9;
constexpr auto kSamplePeriod = std::chrono::milliseconds(10);

/// The test-suite overrides must not reach the measured jobs: thread
/// counts, schedule, tiling and kernels are part of each workload.
void ClearOverrides() {
  for (const char* name : {"PPC_NUM_THREADS", "PPC_SCHEDULE", "PPC_TILE_SIZE",
                           "PPC_FORCE_SCALAR_KERNELS"}) {
    unsetenv(name);
  }
  std::vector<std::string> chaos;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "PPC_CHAOS_", 10) == 0) {
      const char* eq = std::strchr(*entry, '=');
      chaos.emplace_back(*entry, eq != nullptr ? eq - *entry : 0);
    }
  }
  for (const std::string& name : chaos) unsetenv(name.c_str());
}

/// One "Key:   value kB" field of /proc/self/status (0 if absent).
long ProcStatus(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

const char* RowsDispatch() {
  return DistanceKernels::KernelToString(DistanceKernels::Active());
}

#ifndef PPC_E2E_BUILD_TYPE
#define PPC_E2E_BUILD_TYPE "unknown"
#endif
#ifndef PPC_E2E_COMPILER
#define PPC_E2E_COMPILER "unknown"
#endif

/// Build and dispatch facts for result.json, through the same public
/// calls `ppclust_cli version` prints.
int PrintInfo() {
  std::printf("{\"aes\": \"%s\", \"sha\": \"%s\", \"rows\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"rates\": {",
              Aes128::AesniSupported() ? "aes-ni" : "software",
              Sha256::ShaNiSupported() ? "sha-ni" : "software", RowsDispatch(),
              PPC_E2E_BUILD_TYPE, PPC_E2E_COMPILER);
  bool first = true;
  for (const Workload& workload : Workloads()) {
    if (workload.clients != 0) continue;
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", workload.name.c_str(),
                workload.rate_per_s);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

/// Samples in-flight jobs and the thread count every 10 ms (traced runs).
class Sampler {
 public:
  explicit Sampler(const Fleet* fleet)
      : fleet_(fleet), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    wake_.NotifyAll();
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  std::vector<double> inflight, threads;

 private:
  void Loop() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!stop_) {
      inflight.push_back(static_cast<double>(fleet_->InFlight()));
      threads.push_back(static_cast<double>(ProcStatus("Threads")));
      wake_.WaitUntil(mutex_, std::chrono::steady_clock::now() + kSamplePeriod);
    }
  }

  const Fleet* fleet_;
  Mutex mutex_;
  CondVar wake_;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

struct Phase {
  int64_t begin_ns = 0;
  std::vector<double> late_ms;
};

std::string SessionId(const char* prefix, size_t index) {
  return prefix + std::to_string(index);
}

/// Closed loop: `clients` threads, each issuing its next job when the
/// previous one completed, until every job in `results` ran.
Phase RunClosedLoop(Fleet* fleet, size_t clients, const char* prefix,
                    bool traced, std::vector<JobResult>* results) {
  Phase phase;
  std::atomic<size_t> next{0};
  std::vector<std::vector<double>> late(clients);
  std::vector<std::thread> threads;
  phase.begin_ns = NowNs();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      int64_t previous_end = 0;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= results->size()) return;
        JobResult& result = (*results)[i];
        const std::string session = SessionId(prefix, i);
        result.scheduled_ns = result.start_ns = NowNs();
        if (previous_end != 0) {
          late[c].push_back(
              static_cast<double>(result.start_ns - previous_end) / 1e6);
        }
        fleet->Start(session, static_cast<int>(i), traced && IsTracedJob(i),
                     &result);
        fleet->Wait(session, &result);
        previous_end = result.end_ns;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& client_late : late) {
    phase.late_ms.insert(phase.late_ms.end(), client_late.begin(),
                         client_late.end());
  }
  return phase;
}

/// Open loop: this thread starts each job at its seeded arrival instant;
/// one collector thread joins them in arrival order. Latency counts from
/// the scheduled instant, so a stalled generator shows up in it.
Phase RunOpenLoop(Fleet* fleet, const std::vector<double>& arrivals_s,
                  bool traced, std::vector<JobResult>* results) {
  Phase phase;
  Mutex mutex;
  CondVar started_cv;
  std::deque<size_t> started;
  std::thread collector([&] {
    for (size_t k = 0; k < results->size(); ++k) {
      size_t i = 0;
      {
        MutexLock lock(mutex);
        while (started.empty()) started_cv.Wait(mutex);
        i = started.front();
        started.pop_front();
      }
      fleet->Wait(SessionId(kJobPrefix, i), &(*results)[i]);
    }
  });
  const auto base = std::chrono::steady_clock::now() + kSamplePeriod;
  phase.begin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       base.time_since_epoch())
                       .count();
  for (size_t i = 0; i < results->size(); ++i) {
    const auto due = base + std::chrono::nanoseconds(
                                static_cast<int64_t>(arrivals_s[i] * 1e9));
    std::this_thread::sleep_until(due);
    JobResult& result = (*results)[i];
    result.scheduled_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            due.time_since_epoch())
            .count();
    result.start_ns = NowNs();
    phase.late_ms.push_back(
        static_cast<double>(result.start_ns - result.scheduled_ns) / 1e6);
    fleet->Start(SessionId(kJobPrefix, i), static_cast<int>(i),
                 traced && IsTracedJob(i), &result);
    {
      MutexLock lock(mutex);
      started.push_back(i);
    }
    started_cv.NotifyOne();
  }
  collector.join();
  return phase;
}

/// Fleet construction plus warm-up jobs, `kSetupReps` times; the last
/// fleet is kept for the measured phase. Closed-loop warm-ups run in the
/// workload's own loop; open-loop ones arrive in one burst, which brings
/// the fleet to its in-flight session count at once.
struct Setup {
  std::unique_ptr<Fleet> fleet;
  std::vector<double> seconds;
  std::vector<double> construction_ms;
};

Result<Setup> SetUp(const Workload& workload, const Inputs& inputs,
                    const Reference& reference, Tracer* tracer) {
  Setup setup;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    setup.fleet.reset();
    const int64_t begin = NowNs();
    PPC_ASSIGN_OR_RETURN(setup.fleet,
                         MakeFleet(workload, inputs, reference, tracer));
    std::vector<JobResult> warm(workload.warmup_jobs);
    if (workload.clients > 0) {
      RunClosedLoop(setup.fleet.get(), workload.clients, kWarmupPrefix,
                    /*traced=*/false, &warm);
    } else {
      for (size_t i = 0; i < warm.size(); ++i) {
        setup.fleet->Start(SessionId(kWarmupPrefix, i), -1, false, &warm[i]);
      }
      for (size_t i = 0; i < warm.size(); ++i) {
        setup.fleet->Wait(SessionId(kWarmupPrefix, i), &warm[i]);
      }
    }
    for (const JobResult& result : warm) {
      if (!result.status.ok()) {
        return Status(result.status.code(),
                      "warm-up job failed: " + result.status.message());
      }
    }
    setup.seconds.push_back(static_cast<double>(NowNs() - begin) / 1e9);
    setup.construction_ms.push_back(
        static_cast<double>(setup.fleet->construction_ns()) / 1e6);
  }
  return setup;
}

double AgglomerativeMs(const Reference& reference) {
  std::vector<double> ms;
  for (size_t rep = 0; rep < kAgglomerativeReps; ++rep) {
    const int64_t begin = NowNs();
    Result<Dendrogram> dendrogram =
        Agglomerative::Run(reference.merged, Linkage::kAverage);
    if (!dendrogram.ok()) return 0;
    ms.push_back(static_cast<double>(NowNs() - begin) / 1e6);
  }
  return Percentile(ms, 0.5);
}

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool traced = false;
  std::string trace_out;
  bool info = false;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      const std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? argv[i] + prefix.size() : nullptr;
    };
    if (const char* v = value("workload")) {
      flags->workload = v;
    } else if (const char* v = value("seed")) {
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("seconds")) {
      flags->seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("trace-out")) {
      flags->trace_out = v;
    } else if (arg == "--traced") {
      flags->traced = true;
    } else if (arg == "--info") {
      flags->info = true;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return flags->info || (!flags->workload.empty() && flags->seconds > 0);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Run(const Flags& flags) {
  const Workload* workload = FindWorkload(flags.workload);
  if (workload == nullptr) return Fail("unknown workload " + flags.workload);

  Result<Inputs> inputs = MakeInputs(*workload, flags.seed, flags.seconds);
  if (!inputs.ok()) return Fail("inputs: " + inputs.status().ToString());
  Result<Reference> reference = BuildReference(*workload, *inputs);
  if (!reference.ok()) {
    return Fail("reference: " + reference.status().ToString());
  }
  if (reference->adjusted_rand < kMinAdjustedRand) {
    return Fail("reference clustering reaches adjusted Rand " +
                std::to_string(reference->adjusted_rand) +
                " against the generator's labels (< 0.9); the workload "
                "would not measure a meaningful job");
  }
  Result<Schedule> schedule = BuildJobSchedule(*workload, *inputs);
  if (!schedule.ok()) return Fail("schedule: " + schedule.status().ToString());

  Tracer tracer;
  Tracer* job_tracer = flags.traced ? &tracer : nullptr;
  Result<Setup> setup = SetUp(*workload, *inputs, *reference, job_tracer);
  if (!setup.ok()) return Fail("setup: " + setup.status().ToString());
  Fleet* fleet = setup->fleet.get();

  std::vector<JobResult> results(inputs->jobs);
  std::unique_ptr<Sampler> sampler;
  if (flags.traced) sampler = std::make_unique<Sampler>(fleet);
  const long rss_before_kb = ProcStatus("VmRSS");
  const double cpu_before = CpuSeconds();
  const ChannelStats wire_before = fleet->WireTotal();
  const Phase phase =
      workload->clients == 0
          ? RunOpenLoop(fleet, inputs->arrivals_s, flags.traced, &results)
          : RunClosedLoop(fleet, workload->clients, kJobPrefix, flags.traced,
                          &results);
  const double cpu_s = CpuSeconds() - cpu_before;
  const ChannelStats wire_after = fleet->WireTotal();
  const long rss_after_kb = ProcStatus("VmRSS");
  if (sampler) sampler->Stop();

  size_t failed = 0;
  int64_t last_end = phase.begin_ns;
  std::vector<double> latency_ms, traced_ms, untraced_ms, start_us;
  std::string first_failure;
  for (const JobResult& result : results) {
    const double ms =
        static_cast<double>(result.end_ns - result.scheduled_ns) / 1e6;
    latency_ms.push_back(ms);
    (result.traced ? traced_ms : untraced_ms).push_back(ms);
    start_us.push_back(static_cast<double>(result.start_cost_ns) / 1e3);
    last_end = std::max(last_end, result.end_ns);
    if (!result.status.ok()) {
      if (failed++ == 0) first_failure = result.status.ToString();
    }
  }
  const size_t completed = results.size() - failed;
  const double wall_s = static_cast<double>(last_end - phase.begin_ns) / 1e9;
  const double per_job = static_cast<double>(std::max<size_t>(completed, 1));

  Metrics metrics;
  std::vector<Check> checks;
  checks.push_back({"outcomes_match_reference", failed == 0, first_failure});
  const double late_p99 = Percentile(phase.late_ms, 0.99);
  if (workload->clients == 0) {
    checks.push_back({"generator_late_p99_within_5ms", late_p99 <= kMaxLateMs,
                      std::to_string(late_p99) + " ms"});
  }
  if (!flags.traced) {
    metrics["job_p50_ms"] = {Percentile(latency_ms, 0.5), "ms"};
    metrics["job_p95_ms"] = {Percentile(latency_ms, 0.95), "ms"};
    metrics["jobs_per_s"] = {static_cast<double>(completed) / wall_s, "1/s"};
    metrics["cpu_ms_per_job"] = {cpu_s * 1e3 / per_job, "ms"};
    metrics["wire_bytes_per_job"] = {
        static_cast<double>(wire_after.wire_bytes - wire_before.wire_bytes) /
            per_job,
        "B"};
    metrics["peak_rss_MB"] = {static_cast<double>(ProcStatus("VmHWM")) / 1024,
                              "MB"};
    metrics["setup_s"] = {Percentile(setup->seconds, 0.5), "s"};
  } else {
    TraceContext context;
    context.schedule = &*schedule;
    context.results = &results;
    context.party_workers = std::max<size_t>(1, workload->config.num_threads);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].traced) {
        context.session_totals[static_cast<int32_t>(i)] =
            fleet->SessionTotal(SessionId(kJobPrefix, i));
      }
    }
    metrics = LayerMetrics(context, tracer, &checks);
    if (workload->name == "bulk-numeric") {
      const double coverage = metrics["core.coverage"].value;
      checks.push_back({"bulk_coverage_at_least_0.9",
                        coverage >= kMinBulkCoverage,
                        std::to_string(coverage)});
    }
    metrics["cluster.agglomerative_ms"] = {AgglomerativeMs(*reference), "ms"};
    metrics["net.fleet_setup_ms"] = {Percentile(setup->construction_ms, 0.5),
                                     "ms"};
    metrics["registry.start_us"] = {Percentile(start_us, 0.5), "us"};
    metrics["registry.inflight_p50"] = {Percentile(sampler->inflight, 0.5),
                                        "count"};
    metrics["registry.inflight_max"] = {Percentile(sampler->inflight, 1.0),
                                        "count"};
    metrics["proc.threads_max"] = {Percentile(sampler->threads, 1.0), "count"};
    metrics["proc.rss_kB_per_job"] = {
        static_cast<double>(rss_after_kb - rss_before_kb) /
            static_cast<double>(results.size()),
        "kB"};
    metrics["driver.late_ms_p99"] = {late_p99, "ms"};
    const double untraced_p50 = Percentile(untraced_ms, 0.5);
    metrics["trace.overhead_frac"] = {
        untraced_p50 > 0 ? Percentile(traced_ms, 0.5) / untraced_p50 - 1 : 0,
        "ratio"};
    if (!flags.trace_out.empty()) {
      Status written = WriteChromeTrace(flags.trace_out, tracer,
                                        inputs->plan, kTraceFileJobs);
      checks.push_back({"trace_file_written", written.ok(),
                        written.ok() ? flags.trace_out : written.ToString()});
    }
  }

  bool correct = true;
  for (const Check& check : checks) correct = correct && check.ok;
  std::printf("{\"workload\": \"%s\", \"traced\": %s, \"seed\": %llu, "
              "\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              workload->name.c_str(), flags.traced ? "true" : "false",
              static_cast<unsigned long long>(flags.seed),
              correct ? "true" : "false", results.size(), failed);
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}, \"checks\": [");
  for (size_t i = 0; i < checks.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                i == 0 ? "" : ", ", checks[i].name.c_str(),
                checks[i].ok ? "true" : "false",
                JsonEscape(checks[i].detail).c_str());
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace
}  // namespace ppc::e2e

int main(int argc, char** argv) {
  ppc::e2e::ClearOverrides();
  ppc::e2e::Flags flags;
  if (!ppc::e2e::ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: ppclust_e2e --workload=NAME --seed=N --seconds=S "
                 "[--traced --trace-out=FILE]\n"
                 "       ppclust_e2e --info\n");
    return 2;
  }
  if (flags.info) return ppc::e2e::PrintInfo();
  return ppc::e2e::Run(flags);
}
