// Span and frame collection, the per-layer metrics derived from them, the
// span accounting checks, and the Chrome trace-event export.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "analysis/stats.h"
#include "e2e.h"
#include "net/secure_channel.h"

namespace ppc::e2e {

namespace {

/// Replaying every frame of a bulk run would take longer than the run;
/// the first few traced jobs give the per-job crypto cost.
constexpr size_t kReplayJobs = 10;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

bool IsSendKind(StepKind kind) {
  switch (kind) {
    case StepKind::kHello:
    case StepKind::kBroadcastRoster:
    case StepKind::kDhSend:
    case StepKind::kCategoricalKeySend:
    case StepKind::kLocalMatrixSend:
    case StepKind::kComparisonSend:
    case StepKind::kCategoricalTokensSend:
      return true;
    default:
      return false;
  }
}

bool IsReceiveKind(StepKind kind) {
  switch (kind) {
    case StepKind::kReceiveHellos:
    case StepKind::kReceiveRoster:
    case StepKind::kDhReceive:
    case StepKind::kCategoricalKeyReceive:
    case StepKind::kLocalMatrixReceive:
    case StepKind::kComparisonReceive:
    case StepKind::kComparisonCollect:
    case StepKind::kCategoricalTokensReceive:
      return true;
    default:
      return false;
  }
}

/// Frames one send step puts on the wire.
size_t FramesOf(StepKind kind, size_t holders) {
  if (kind == StepKind::kBroadcastRoster) return holders;
  if (kind == StepKind::kCategoricalKeySend) return holders - 1;
  return 1;
}

/// Which per-layer step bucket a kind is summed into ("" = none).
const char* BucketOf(StepKind kind) {
  switch (kind) {
    case StepKind::kLocalMatrixBuild:
      return "core.p4.compute_ms";
    case StepKind::kLocalMatrixSend:
      return "core.p4.send_ms";
    case StepKind::kLocalMatrixReceive:
      return "core.p4.recv_ms";
    case StepKind::kComparisonInit:
    case StepKind::kComparisonBuild:
      return "core.p5.compute_ms";
    case StepKind::kComparisonSend:
    case StepKind::kCategoricalTokensSend:
      return "core.p5.send_ms";
    case StepKind::kComparisonReceive:
    case StepKind::kComparisonCollect:
    case StepKind::kCategoricalTokensReceive:
      return "core.p5.recv_ms";
    case StepKind::kComparisonInstall:
    case StepKind::kCategoricalFinalize:
      return "core.p5.install_ms";
    default:
      return "";
  }
}

/// Length of the union of [begin, end) intervals clipped to the window.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t window_begin, int64_t window_end) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = window_begin;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, cursor);
    end = std::min(end, window_end);
    if (end > begin) {
      covered += end - begin;
      cursor = end;
    }
  }
  return covered;
}

struct Replay {
  double seal_ms_per_job = 0;
  double open_ms_per_job = 0;
  /// Open time of frames the schedule's receive steps consume.
  double graph_open_ms_per_job = 0;
};

/// Seals and opens a frame of each captured topic and size through one
/// channel context, off the timed path: the crypto share of a job.
Replay ReplayCrypto(const std::vector<Frame>& frames,
                    const std::set<int32_t>& jobs,
                    const std::map<std::string, int>& topic_phases) {
  const SecureChannel::Context context(SecureChannel::ChannelKey(
      SecureChannel::kMasterKey, "A", "TP", "e2e-replay"));
  const size_t overhead =
      SecureChannel::kNonceLength + SecureChannel::kMacLength;
  int64_t seal_ns = 0, open_ns = 0, graph_open_ns = 0;
  uint64_t nonce = 0;
  for (const Frame& frame : frames) {
    if (jobs.count(frame.job) == 0 || frame.wire_bytes < overhead) continue;
    const std::string payload(frame.wire_bytes - overhead, '\0');
    const int64_t t0 = NowNs();
    Result<std::string> wire = context.Seal(frame.topic, nonce++, payload);
    const int64_t t1 = NowNs();
    if (!wire.ok()) continue;
    Result<std::string> opened = context.Open(frame.topic, *wire, "replay");
    const int64_t t2 = NowNs();
    if (!opened.ok()) continue;
    seal_ns += t1 - t0;
    open_ns += t2 - t1;
    if (topic_phases.count(frame.topic) != 0) graph_open_ns += t2 - t1;
  }
  Replay replay;
  if (jobs.empty()) return replay;
  const double n = static_cast<double>(jobs.size());
  replay.seal_ms_per_job = Ms(seal_ns) / n;
  replay.open_ms_per_job = Ms(open_ns) / n;
  replay.graph_open_ms_per_job = Ms(graph_open_ns) / n;
  return replay;
}

}  // namespace

uint32_t Tracer::ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

void Tracer::AddSpan(const Span& span) {
  MutexLock lock(mutex_);
  spans_.push_back(span);
}

void Tracer::AddFrame(const WireFrame& frame) {
  if (frame.session.rfind(kJobPrefix, 0) != 0) return;
  const size_t job = std::stoul(frame.session.substr(sizeof(kJobPrefix) - 1));
  if (!IsTracedJob(job)) return;
  MutexLock lock(mutex_);
  frames_.push_back(
      {static_cast<int32_t>(job), frame.topic, frame.wire_bytes.size()});
}

std::vector<Span> Tracer::spans() const {
  MutexLock lock(mutex_);
  return spans_;
}

std::vector<Frame> Tracer::frames() const {
  MutexLock lock(mutex_);
  return frames_;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

Metrics LayerMetrics(const TraceContext& context, const Tracer& tracer,
                     std::vector<Check>* checks) {
  const Schedule& schedule = *context.schedule;
  const std::vector<ScheduleStep>& steps = schedule.steps();
  const std::vector<JobResult>& results = *context.results;
  const size_t holders = schedule.plan().holder_order.size();
  const std::map<std::string, int> topic_phases = schedule.TopicPhases();

  std::map<int32_t, std::vector<Span>> by_job;
  for (const Span& span : tracer.spans()) by_job[span.job].push_back(span);
  std::map<int32_t, std::vector<Frame>> frames_by_job;
  const std::vector<Frame> frames = tracer.frames();
  for (const Frame& frame : frames) frames_by_job[frame.job].push_back(frame);

  // Per-job values; the reported metric is their mean, so the parts add up
  // the way the whole does.
  std::map<std::string, std::vector<double>> per_job;
  int64_t send_ns = 0;
  size_t send_frames = 0;
  double max_frame = 0;
  std::vector<double> receive_ms, wall_ms;
  std::set<int32_t> replay_jobs;
  Check step_count{"spans_per_job_equal_step_count", true, ""};
  Check party_sums{"party_span_sum_within_wall", true, ""};
  Check taps{"tapped_bytes_equal_channel_stats", true, ""};

  for (size_t j = 0; j < results.size(); ++j) {
    const JobResult& result = results[j];
    if (!result.traced || !result.status.ok()) continue;
    const int32_t job = static_cast<int32_t>(j);
    const std::vector<Span>& spans = by_job[job];
    const int64_t wall_ns = result.end_ns - result.start_ns;
    wall_ms.push_back(Ms(wall_ns));

    std::map<std::string, double> sums;
    std::vector<int64_t> step_ns(steps.size(), 0);
    std::map<int, int64_t> party_ns;
    std::vector<std::pair<int64_t, int64_t>> intervals;
    size_t step_spans = 0;
    int64_t steps_total_ns = 0, receive_ns = 0;
    for (const Span& span : spans) {
      const int64_t ns = span.end_ns - span.begin_ns;
      intervals.emplace_back(span.begin_ns, span.end_ns);
      if (span.party >= 0) party_ns[span.party] += ns;
      if (span.step == kNoStep) {
        if (std::string(span.name) == "cluster.request") {
          sums["cluster.request_ms"] += Ms(ns);
        }
        continue;
      }
      const ScheduleStep& step = steps[static_cast<size_t>(span.step)];
      ++step_spans;
      step_ns[static_cast<size_t>(span.step)] = ns;
      steps_total_ns += ns;
      const char* bucket = BucketOf(step.kind);
      if (*bucket != '\0') sums[bucket] += Ms(ns);
      if (step.phase == 1) sums["core.p1.ms"] += Ms(ns);
      if (step.phase == 2) sums["core.p2.ms"] += Ms(ns);
      if (step.phase <= 3) sums["core.setup_ms"] += Ms(ns);
      if (step.phase == 6) sums["core.p6.ms"] += Ms(ns);
      if (IsSendKind(step.kind)) {
        send_ns += ns;
        send_frames += FramesOf(step.kind, holders);
      }
      if (IsReceiveKind(step.kind)) receive_ns += ns;
    }

    if (step_spans != steps.size() && step_count.ok) {
      step_count = {step_count.name, false,
                    "job " + std::to_string(job) + ": " +
                        std::to_string(step_spans) + " step spans, " +
                        std::to_string(steps.size()) + " steps"};
    }
    const int64_t party_budget =
        wall_ns * static_cast<int64_t>(context.party_workers);
    for (const auto& [party, ns] : party_ns) {
      if (ns > party_budget && party_sums.ok) {
        party_sums = {party_sums.name, false,
                      "job " + std::to_string(job) + " party " +
                          std::to_string(party) + ": " +
                          std::to_string(Ms(ns)) + " ms of spans in " +
                          std::to_string(Ms(wall_ns)) + " ms"};
      }
    }

    // Longest dependency chain, weighted by measured step time.
    std::vector<int64_t> finish(steps.size(), 0);
    int64_t critical_ns = 0;
    for (size_t i = 0; i < steps.size(); ++i) {
      int64_t ready = 0;
      for (uint32_t dep : steps[i].deps) ready = std::max(ready, finish[dep]);
      finish[i] = ready + step_ns[i];
      critical_ns = std::max(critical_ns, finish[i]);
    }

    const std::vector<Frame>& job_frames = frames_by_job[job];
    uint64_t tapped_bytes = 0;
    double p4_bytes = 0, p5_bytes = 0;
    for (const Frame& frame : job_frames) {
      tapped_bytes += frame.wire_bytes;
      max_frame = std::max(max_frame, static_cast<double>(frame.wire_bytes));
      auto phase = topic_phases.find(frame.topic);
      if (phase == topic_phases.end()) continue;
      if (phase->second == 4) p4_bytes += static_cast<double>(frame.wire_bytes);
      if (phase->second == 5) p5_bytes += static_cast<double>(frame.wire_bytes);
    }
    const ChannelStats stats = context.session_totals.count(job) != 0
                                   ? context.session_totals.at(job)
                                   : ChannelStats();
    if ((tapped_bytes != stats.wire_bytes ||
         job_frames.size() != stats.messages) &&
        taps.ok) {
      taps = {taps.name, false,
              "job " + std::to_string(job) + ": taps saw " +
                  std::to_string(job_frames.size()) + " frames / " +
                  std::to_string(tapped_bytes) + " B, stats " +
                  std::to_string(stats.messages) + " / " +
                  std::to_string(stats.wire_bytes) + " B"};
    }
    if (replay_jobs.size() < kReplayJobs) replay_jobs.insert(job);

    for (const char* name :
         {"core.p1.ms", "core.p2.ms", "core.setup_ms", "core.p4.compute_ms",
          "core.p4.send_ms", "core.p4.recv_ms", "core.p5.compute_ms",
          "core.p5.send_ms", "core.p5.recv_ms", "core.p5.install_ms",
          "core.p6.ms", "cluster.request_ms"}) {
      per_job[name].push_back(sums[name]);
    }
    const double wall = static_cast<double>(std::max<int64_t>(wall_ns, 1));
    per_job["core.critical_path_ms"].push_back(Ms(critical_ns));
    per_job["core.parallelism"].push_back(static_cast<double>(steps_total_ns) /
                                          wall);
    per_job["core.coverage"].push_back(
        static_cast<double>(
            CoveredNs(intervals, result.start_ns, result.end_ns)) /
        wall);
    per_job["core.steps_per_job"].push_back(static_cast<double>(step_spans));
    per_job["net.frames_per_job"].push_back(
        static_cast<double>(stats.messages));
    per_job["net.payload_bytes_per_job"].push_back(
        static_cast<double>(stats.payload_bytes));
    per_job["net.overhead_bytes_per_job"].push_back(
        static_cast<double>(stats.wire_bytes - stats.payload_bytes));
    per_job["net.p4.wire_bytes"].push_back(p4_bytes);
    per_job["net.p5.wire_bytes"].push_back(p5_bytes);
    receive_ms.push_back(Ms(receive_ns));
  }

  checks->push_back(step_count);
  checks->push_back(party_sums);
  checks->push_back(taps);
  if (wall_ms.empty()) {
    checks->push_back({"traced_jobs_completed", false, "no traced job ok"});
  }

  static const std::map<std::string, std::string> kUnits = {
      {"core.parallelism", "ratio"},     {"core.coverage", "ratio"},
      {"core.steps_per_job", "count"},   {"net.frames_per_job", "count"},
      {"net.payload_bytes_per_job", "B"}, {"net.overhead_bytes_per_job", "B"},
      {"net.p4.wire_bytes", "B"},         {"net.p5.wire_bytes", "B"}};
  Metrics metrics;
  for (const auto& [name, values] : per_job) {
    auto unit = kUnits.find(name);
    metrics[name] = {Stats::Mean(values),
                     unit == kUnits.end() ? "ms" : unit->second};
  }

  const Replay replay = ReplayCrypto(frames, replay_jobs, topic_phases);
  const double mean_wall = Stats::Mean(wall_ms);
  metrics["crypto.seal_ms_per_job"] = {replay.seal_ms_per_job, "ms"};
  metrics["crypto.open_ms_per_job"] = {replay.open_ms_per_job, "ms"};
  metrics["crypto.share"] = {
      mean_wall > 0
          ? (replay.seal_ms_per_job + replay.open_ms_per_job) / mean_wall
          : 0,
      "ratio"};
  metrics["net.recv_wait_ms"] = {
      Stats::Mean(receive_ms) - replay.graph_open_ms_per_job, "ms"};
  metrics["net.send_us_per_frame"] = {
      send_frames > 0 ? static_cast<double>(send_ns) / 1e3 /
                            static_cast<double>(send_frames)
                      : 0,
      "us"};
  metrics["net.max_frame_bytes"] = {max_frame, "B"};
  metrics["core.p5.max_ready_width"] = {
      static_cast<double>(schedule.MaxReadyWidth(5)), "count"};
  return metrics;
}

Status WriteChromeTrace(const std::string& path, const Tracer& tracer,
                        const SessionPlan& plan, size_t max_jobs) {
  std::vector<Span> spans = tracer.spans();
  std::set<int32_t> jobs;
  for (const Span& span : spans) jobs.insert(span.job);
  while (jobs.size() > max_jobs) jobs.erase(std::prev(jobs.end()));
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [&](const Span& s) { return !jobs.count(s.job); }),
              spans.end());
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.begin_ns < b.begin_ns;
  });
  const int64_t epoch = spans.empty() ? 0 : spans.front().begin_ns;

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Unavailable("cannot write " + path);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::string party = "driver";
    if (span.party == 0) party = plan.third_party;
    if (span.party > 0) {
      party = plan.holder_order[static_cast<size_t>(span.party) - 1];
    }
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %" PRId32
                 ", \"tid\": %" PRIu32
                 ", \"args\": {\"step\": %" PRId32 ", \"party\": \"%s\"}}",
                 i == 0 ? "" : ",", span.name,
                 span.step == kNoStep ? "driver" : "step",
                 static_cast<double>(span.begin_ns - epoch) / 1e3,
                 static_cast<double>(span.end_ns - span.begin_ns) / 1e3,
                 span.job, span.tid, span.step, party.c_str());
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) return Status::Unavailable("cannot write " + path);
  return Status::OK();
}

}  // namespace ppc::e2e
